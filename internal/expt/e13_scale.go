package expt

import (
	"time"

	"nearclique/internal/core"
	"nearclique/internal/stats"
)

// RunE13 measures the simulator itself: full DistNearClique runs on the
// sharded flat-buffer engine as n grows into the million-node regime the
// paper's O(1)-round claim is about. Graphs are sparse planted
// near-cliques built through the O(n+m) generators; the workload grid is
// shared with cmd/bench (scale.go). The quick configuration stays small
// for CI; the full run includes n = 10⁶.
func RunE13(cfg Config) []Table {
	t := &Table{
		ID:    "E13",
		Title: "Engine scaling: sharded flat-buffer engine on sparse planted instances",
		Note: "The rounds/frames/recovered columns are bit-identical at any worker count and " +
			"GOMAXPROCS; only wall time varies. Build is graph construction, run is Find.",
		Header: []string{"n", "m", "rounds", "frames", "build ms", "run ms", "recovered"},
	}
	for _, pt := range ScalePoints(cfg.Quick) {
		seed := stats.TrialSeed(cfg.Seed+1313, pt.N)
		buildStart := time.Now()
		inst := ScaleInstance(pt, seed)
		// Building the CSR here keeps it out of the run timing.
		inst.Graph.CSR()
		buildMS := time.Since(buildStart).Milliseconds()

		runStart := time.Now()
		res, err := core.Find(inst.Graph, ScaleOptions(pt, seed+1))
		runMS := time.Since(runStart).Milliseconds()
		if err != nil {
			t.Rows = append(t.Rows, []string{
				f("%d", pt.N), f("%d", inst.Graph.M()),
				"-", "-", f("%d", buildMS), f("%d", runMS), "error: " + err.Error(),
			})
			continue
		}
		recovered := "none"
		if best := res.Best(); best != nil {
			recovered = pct(RecoveredCount(inst.D, best.Members), len(inst.D))
		}
		t.Rows = append(t.Rows, []string{
			f("%d", pt.N), f("%d", inst.Graph.M()),
			f("%d", res.Metrics.Rounds), f("%d", res.Metrics.Frames),
			f("%d", buildMS), f("%d", runMS), recovered,
		})
	}
	return []Table{*t}
}
