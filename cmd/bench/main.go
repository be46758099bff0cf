// Command bench measures the CONGEST simulator and emits a
// machine-readable BENCH_engine.json: per workload, wall time, rounds,
// frames, payload bytes and allocation counts, with derived rounds/sec,
// bytes/sec and allocs/round. The gossip and find rows run the sharded
// simulator, the only executor whose rounds, frames and O(log n)-bit
// payloads are the paper's costs; the count rows time the Turán-shadow
// counting engine (samples/sec). Records use the shared schema of
// internal/report (the same cost block cmd/nearclique -json emits), so
// downstream tooling parses both identically.
//
// With -costfit it runs a fixed engine×size grid of solves, fits the
// admission cost model (internal/costmodel) on the observed costs, and
// emits the model itself as COSTMODEL.json — the artifact nearcliqued
// -costmodel seeds from. -costcheck is the CI twin: it re-solves the
// fixed seeds, compares observed wall time against the committed model's
// prediction, and fails on >3x drift — the committed pricing artifact
// cannot silently rot as the engines change underneath it.
//
// Usage:
//
//	bench                 # full grid: gossip, find and count rows (tens of seconds)
//	bench -quick          # small grid for CI
//	bench -o BENCH_engine.json
//	bench -costfit -o COSTMODEL.json      # fit the admission cost model
//	bench -costcheck -quick               # CI drift gate vs COSTMODEL.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"nearclique"
	"nearclique/internal/buildinfo"
	"nearclique/internal/congest"
	"nearclique/internal/core"
	"nearclique/internal/costmodel"
	"nearclique/internal/expt"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
	"nearclique/internal/report"
)

// Report is the emitted file; each entry is a shared-schema Measurement.
type Report struct {
	Generated  string               `json:"generated"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Quick      bool                 `json:"quick"`
	Results    []report.Measurement `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "small grid for CI")
		out     = fs.String("o", "", "write the JSON report to this file (default stdout)")
		seed    = fs.Int64("seed", 1, "base seed")
		costfit = fs.Bool("costfit", false, "fit the admission cost model on a fixed solve grid and emit it as JSON")
		costchk = fs.Bool("costcheck", false, "re-solve the fixed grid and fail on >3x drift vs the committed cost model")
		model   = fs.String("model", "COSTMODEL.json", "with -costcheck: the committed cost-model artifact to check against")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("bench"))
		return 0
	}
	if *costchk {
		if err := costCheck(stderr, *quick, *seed, *model); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "costcheck: ok")
		return 0
	}
	var payload interface{}
	if *costfit {
		m, err := costFitGrid(stderr, *quick, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		payload = m
	} else {
		rep := Report{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
		}
		rep.Results = append(rep.Results, gossipBenchmarks(stderr, *quick, *seed)...)
		rep.Results = append(rep.Results, findBenchmarks(stderr, *quick, *seed)...)
		counts, err := countBenchmarks(stderr, *quick, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rep.Results = append(rep.Results, counts...)
		payload = rep
	}

	enc, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// --- gossip: raw frame throughput ---------------------------------------

type gossipMsg struct{ hop int32 }

func (gossipMsg) BitLen() int { return 24 }

type gossipProc struct{ maxHop int32 }

func (p *gossipProc) PhaseStart(ctx *congest.Context) {
	ctx.Broadcast(gossipMsg{hop: 0})
}

func (p *gossipProc) Recv(ctx *congest.Context, from congest.NodeID, msg congest.Message) {
	m := msg.(gossipMsg)
	if m.hop+1 < p.maxHop && int32(from) == ctx.Neighbors()[0] {
		ctx.Broadcast(gossipMsg{hop: m.hop + 1})
	}
}

func gossipBenchmarks(stderr io.Writer, quick bool, seed int64) []report.Measurement {
	n := 5000
	hops := int32(8)
	if quick {
		n = 1000
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gossip/er", gen.SparseErdosRenyi(n, 20/float64(n-1), seed)},
		{"gossip/planted", gen.SparsePlantedNearClique(n, n/5, 0.02, 10, seed).Graph},
		{"gossip/powerlaw", gen.SparsePreferentialAttachment(n, 8, seed)},
	}
	var out []report.Measurement
	for _, gr := range graphs {
		gr.g.CSR() // build once, outside the timed region
		fmt.Fprintf(stderr, "bench: %s sharded...\n", gr.name)
		out = append(out, measure(gr.name, gr.g, 3, func() congest.Metrics {
			net := congest.NewNetwork(gr.g, congest.Options{Seed: seed},
				func(ctx *congest.Context) congest.Proc { return &gossipProc{maxHop: hops} })
			if err := net.RunPhase("gossip"); err != nil {
				panic(err)
			}
			return net.Metrics()
		}))
	}
	return out
}

// measure runs fn reps times and keeps the fastest wall time (with its
// metrics), the standard best-of-k discipline for a noisy machine.
func measure(name string, g *graph.Graph, reps int, fn func() congest.Metrics) report.Measurement {
	best := report.Measurement{Workload: name, Engine: "sharded", N: g.N(), M: g.M()}
	for i := 0; i < reps; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		m := fn()
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if i == 0 || wall < best.WallNS {
			best.WallNS = wall
			best.Rounds = m.Rounds
			best.Frames = m.Frames
			best.PayloadBytes = m.Bits / 8
			best.Allocs = ms1.Mallocs - ms0.Mallocs
			best.HeapBytes = heapGrowth(&ms0, &ms1)
		}
	}
	if best.WallNS > 0 {
		secs := float64(best.WallNS) / 1e9
		best.RoundsPerSec = round2(float64(best.Rounds) / secs)
		best.MBytesPerSec = round2(float64(best.PayloadBytes) / secs / 1e6)
	}
	if best.Rounds > 0 {
		best.AllocsPerRnd = round2(float64(best.Allocs) / float64(best.Rounds))
	}
	// Content digest outside the timed region: results stay attributable
	// to an exact input without perturbing the measurement.
	best.GraphDigest = g.Digest()
	return best
}

// --- find: full protocol runs at scale ----------------------------------

func findBenchmarks(stderr io.Writer, quick bool, seed int64) []report.Measurement {
	var out []report.Measurement
	for _, pt := range expt.ScalePoints(quick) {
		// The grid, instance, and Find configuration are shared with
		// experiment E13 (internal/expt/scale.go) so BENCH_engine.json and
		// the E13 table always measure the same workload.
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		name := fmt.Sprintf("find/planted-n%d", pt.N)
		fmt.Fprintf(stderr, "bench: %s sharded...\n", name)
		reps := 3
		if pt.N >= 1_000_000 {
			reps = 1
		}
		var recovered float64
		res := measure(name, inst.Graph, reps, func() congest.Metrics {
			r, err := core.Find(inst.Graph, expt.ScaleOptions(pt, seed+1))
			if err != nil {
				panic(err)
			}
			if best := r.Best(); best != nil {
				recovered = 100 * float64(expt.RecoveredCount(inst.D, best.Members)) /
					float64(len(inst.D))
			}
			return r.Metrics
		})
		res.RecoveredPct = round2(recovered)
		out = append(out, res)
	}
	return out
}

// heapGrowth returns the live-heap growth across a measured region (the
// caller GC'd immediately before reading ms0), clamped at zero.
func heapGrowth(ms0, ms1 *runtime.MemStats) uint64 {
	if ms1.HeapAlloc <= ms0.HeapAlloc {
		return 0
	}
	return ms1.HeapAlloc - ms0.HeapAlloc
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// --- count: Turán-shadow sampling throughput ------------------------------

// countBenchmarks measures the counting engine: per workload and clique
// size, one Count call (shadow build + all draws) best-of-k, reported as
// Measurement rows with the estimate columns filled — engine "shadow" in
// BENCH_engine.json, joining the solve rows downstream tooling already
// parses.
func countBenchmarks(stderr io.Writer, quick bool, seed int64) ([]report.Measurement, error) {
	pt := expt.ScalePoint{N: 100_000, Size: 1000, AvgDeg: 12}
	samples := 1 << 16
	if quick {
		pt = expt.ScalePoint{N: 5_000, Size: 300, AvgDeg: 10}
		samples = 1 << 13
	}
	inst := expt.ScaleInstance(pt, seed)
	inst.Graph.CSR()
	name := fmt.Sprintf("count/planted-n%d", pt.N)
	var out []report.Measurement
	for _, k := range []int{3, 4, 5} {
		fmt.Fprintf(stderr, "bench: %s k=%d...\n", name, k)
		solver, err := nearclique.New(
			nearclique.WithEngine(nearclique.EngineShadow),
			nearclique.WithCliqueSize(k),
			nearclique.WithSamples(samples),
			nearclique.WithSeed(seed+1),
		)
		if err != nil {
			return nil, err
		}
		m := report.Measurement{
			Workload: name, Engine: "shadow",
			GraphDigest: inst.Graph.Digest(),
			N:           inst.Graph.N(), M: inst.Graph.M(),
			K: k, CountSamples: samples,
		}
		const reps = 3
		for i := 0; i < reps; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := solver.Count(context.Background(), inst.Graph)
			wall := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", name, k, err)
			}
			if i == 0 || wall < m.WallNS {
				m.WallNS = wall
				m.Cliques = res.Cliques
				m.NearCliques = res.NearCliques
				m.Allocs = ms1.Mallocs - ms0.Mallocs
				m.HeapBytes = heapGrowth(&ms0, &ms1)
			}
		}
		if m.WallNS > 0 {
			// Both passes draw: the clique pass and (for ε > 0 with slack)
			// the near pass, 2·samples total draws per Count.
			m.SamplesPerSec = round2(float64(2*samples) / (float64(m.WallNS) / 1e9))
		}
		out = append(out, m)
	}
	return out, nil
}

// --- cost model: fit and drift gate --------------------------------------

// costDriftLimit is the CI gate: the committed model's predicted wall
// time must stay within this factor of the observed one in either
// direction.
const costDriftLimit = 3.0

// costFitSeeds is how many coin seeds each (point, engine) cell of the
// fit grid observes; 2 points × 4 seeds clears the model's per-engine
// minimum-sample gate even in -quick mode.
const costFitSeeds = 4

var costEngines = []nearclique.Engine{
	nearclique.EngineSequential,
	nearclique.EngineSharded,
}

// costPoints is the fixed fit/check grid. The full grid is a superset of
// the quick one, so a committed model fitted full always has the quick
// points in-distribution for the CI check.
func costPoints(quick bool) []expt.ScalePoint {
	pts := []expt.ScalePoint{
		{N: 2_000, Size: 150, AvgDeg: 8},
		{N: 5_000, Size: 300, AvgDeg: 10},
	}
	if !quick {
		pts = append(pts,
			expt.ScalePoint{N: 10_000, Size: 400, AvgDeg: 12},
			expt.ScalePoint{N: 50_000, Size: 800, AvgDeg: 12},
		)
	}
	return pts
}

// costSolve runs one grid solve and returns the features the server
// would price it by, the result, and the wall time.
func costSolve(g *nearclique.Graph, pt expt.ScalePoint, eng nearclique.Engine, seed int64) (costmodel.Features, *nearclique.Result, int64, error) {
	sample := 4 * float64(pt.N) / float64(pt.Size)
	feat := costmodel.Features{
		Engine:   eng.String(),
		N:        g.N(),
		M:        g.M(),
		Epsilon:  expt.ScaleEps,
		Sample:   sample,
		Versions: 1,
	}
	solver, err := nearclique.New(
		nearclique.WithEngine(eng),
		nearclique.WithEpsilon(expt.ScaleEps),
		nearclique.WithExpectedSample(sample),
		nearclique.WithMinSize(pt.Size/4),
		nearclique.WithSeed(seed),
	)
	if err != nil {
		return feat, nil, 0, err
	}
	start := time.Now()
	res, err := solver.Solve(context.Background(), g)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return feat, nil, 0, fmt.Errorf("costfit %s n=%d: %w", eng, pt.N, err)
	}
	return feat, res, wall, nil
}

// costCountK is the clique size the shadow rows of the fit/check grid
// run; costCountSamples the draw count. Fixed values keep the grid's
// shadow work spread on the (n, m) axis, which the regression needs.
const (
	costCountK       = 4
	costCountSamples = 4096
)

// costCount runs one grid count and returns the features the server
// would price it by, the result, and the wall time — the counting twin
// of costSolve.
func costCount(g *nearclique.Graph, seed int64) (costmodel.Features, *nearclique.CountResult, int64, error) {
	feat := costmodel.Features{
		Engine: "shadow",
		N:      g.N(),
		M:      g.M(),
		Sample: costCountSamples,
		K:      costCountK,
	}
	solver, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineShadow),
		nearclique.WithCliqueSize(costCountK),
		nearclique.WithSamples(costCountSamples),
		nearclique.WithSeed(seed),
	)
	if err != nil {
		return feat, nil, 0, err
	}
	start := time.Now()
	res, err := solver.Count(context.Background(), g)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return feat, nil, 0, fmt.Errorf("costfit shadow n=%d: %w", g.N(), err)
	}
	return feat, res, wall, nil
}

// costFitGrid solves the fixed grid and fits the admission cost model on
// the observed (rounds, bytes, wall) triples — the COSTMODEL.json
// generator. Shadow counting rows observe leaves in place of rounds (the
// estimator has no message rounds) and train the same regression the
// /v1/count admission path prices by.
func costFitGrid(stderr io.Writer, quick bool, seed int64) (*costmodel.Model, error) {
	model := costmodel.New()
	for _, pt := range costPoints(quick) {
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		for _, eng := range costEngines {
			fmt.Fprintf(stderr, "bench: costfit %s n=%d...\n", eng, pt.N)
			for i := 0; i < costFitSeeds; i++ {
				feat, res, wall, err := costSolve(inst.Graph, pt, eng, seed+1+int64(i))
				if err != nil {
					return nil, err
				}
				model.Observe(feat, int64(res.Metrics.Rounds), int64(res.Metrics.Bits)/8, wall)
			}
		}
		fmt.Fprintf(stderr, "bench: costfit shadow n=%d...\n", pt.N)
		for i := 0; i < costFitSeeds; i++ {
			feat, res, wall, err := costCount(inst.Graph, seed+1+int64(i))
			if err != nil {
				return nil, err
			}
			model.Observe(feat, int64(res.CliqueLeaves+res.NearLeaves), 0, wall)
		}
	}
	return model, nil
}

// costCheck is the CI drift gate: re-solve the fixed grid with the SAME
// coin seeds the fit observed and compare the geometric mean of observed
// wall times against the committed model's prediction. Solves are
// deterministic per seed, so re-solving the fit seeds replays the exact
// same work — per-seed work variance (15x at n=5·10⁴, from how many
// leaders the coins sample and how big their neighborhoods are) cancels,
// and the ratio isolates actual engine cost changes. Each seed takes the
// best of two runs to shed scheduler noise. A >costDriftLimit ratio in
// either direction fails — the committed pricing artifact must be
// regenerated when the engines' cost structure actually changes.
func costCheck(stderr io.Writer, quick bool, seed int64, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading cost model: %w (generate with -costfit)", err)
	}
	model := costmodel.New()
	if err := json.Unmarshal(blob, model); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	failed := false
	// check compares one cell's observed geometric-mean wall time against
	// the committed prediction, shared by the solve and count cells.
	check := func(label string, n int, feat costmodel.Features, observed float64) error {
		pred := model.Predict(feat)
		if !pred.Reliable() {
			return fmt.Errorf("no reliable %s prediction in %s (samples=%d): refit with -costfit",
				label, path, pred.Samples)
		}
		ratio := observed / pred.NS
		if ratio < 1 {
			ratio = 1 / ratio
		}
		status := "ok"
		if ratio > costDriftLimit {
			status = "DRIFT"
			failed = true
		}
		fmt.Fprintf(stderr, "bench: costcheck %s n=%d predicted=%.2fms observed=%.2fms ratio=%.2f %s\n",
			label, n, pred.NS/1e6, observed/1e6, ratio, status)
		return nil
	}
	for _, pt := range costPoints(quick) {
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		for _, eng := range costEngines {
			var logSum float64
			var feat costmodel.Features
			for i := 0; i < costFitSeeds; i++ {
				var best int64
				for rep := 0; rep < 2; rep++ {
					f, _, wall, err := costSolve(inst.Graph, pt, eng, seed+1+int64(i))
					if err != nil {
						return err
					}
					if rep == 0 || wall < best {
						best = wall
					}
					feat = f
				}
				logSum += math.Log(float64(best))
			}
			if err := check(eng.String(), pt.N, feat, math.Exp(logSum/costFitSeeds)); err != nil {
				return err
			}
		}
		// The shadow counting cell: same seeds, same best-of-2, same gate.
		var logSum float64
		var feat costmodel.Features
		for i := 0; i < costFitSeeds; i++ {
			var best int64
			for rep := 0; rep < 2; rep++ {
				f, _, wall, err := costCount(inst.Graph, seed+1+int64(i))
				if err != nil {
					return err
				}
				if rep == 0 || wall < best {
					best = wall
				}
				feat = f
			}
			logSum += math.Log(float64(best))
		}
		if err := check("shadow", pt.N, feat, math.Exp(logSum/costFitSeeds)); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("cost model drifted more than %gx from observed wall time; regenerate with -costfit and review what changed",
			costDriftLimit)
	}
	return nil
}
