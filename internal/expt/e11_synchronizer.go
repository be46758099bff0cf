package expt

import (
	"nearclique/internal/core"
	"nearclique/internal/gen"
	"nearclique/internal/stats"
)

// RunE11 measures the cost of the paper's §2 remark — "any synchronous
// algorithm can be executed in an asynchronous environment using a
// synchronizer [3]" — by running the identical protocol on the
// asynchronous executor with an α-synchronizer and random message delays.
// Outputs are bit-for-bit equal (asserted by the test suite); the table
// quantifies the overhead: one ack per protocol frame plus Θ(|E|) safe
// signals per round, and virtual completion time ≈ rounds × mean delay.
func RunE11(cfg Config) []Table {
	trials := cfg.Trials
	if trials == 0 {
		trials = 5
	}
	sizes := []int{150, 300, 600}
	if cfg.Quick {
		trials = 2
		sizes = []int{100, 200}
	}
	const (
		eps      = 0.25
		delta    = 0.35
		s        = 5.0
		maxDelay = 5
	)
	t := &Table{
		ID:    "E11",
		Title: "α-synchronizer overhead: asynchronous vs synchronous execution",
		Note: "Paper §2: a synchronizer makes the synchronous algorithm run " +
			"asynchronously. Expect identical outputs (tested), acks = protocol " +
			"frames, safes ≈ 2|E| per round, and virtual time ≈ rounds × mean delay.",
		Header: []string{"n", "outputs equal", "sync rounds", "async node-rounds",
			"protocol frames", "acks", "safes", "msg overhead ×", "virtual time"},
	}
	for _, n := range sizes {
		equal := 0
		var syncRounds, asyncRounds, frames, acks, safes, vtime, overhead []float64
		for trial := 0; trial < trials; trial++ {
			seed := stats.TrialSeed(cfg.Seed+1111, trial)
			inst := gen.PlantedNearClique(n, int(delta*float64(n)), eps*eps*eps, 0.03, seed)
			opts := core.Options{Epsilon: eps, ExpectedSample: s, Seed: seed + 1}
			syncRes, err := core.Find(inst.Graph, opts)
			if err != nil {
				continue
			}
			opts.Async = true
			opts.AsyncMaxDelay = maxDelay
			asyncRes, err := core.Find(inst.Graph, opts)
			if err != nil {
				continue
			}
			same := true
			for v := 0; v < n; v++ {
				if syncRes.Label(v) != asyncRes.Label(v) {
					same = false
					break
				}
			}
			if same {
				equal++
			}
			sm, am := syncRes.Metrics, asyncRes.Metrics
			syncRounds = append(syncRounds, float64(sm.Rounds))
			asyncRounds = append(asyncRounds, float64(am.Rounds))
			frames = append(frames, float64(am.Frames))
			acks = append(acks, float64(am.AsyncAcks))
			safes = append(safes, float64(am.AsyncSafes))
			vtime = append(vtime, float64(am.AsyncVirtualTime))
			overhead = append(overhead,
				float64(am.Frames+am.AsyncAcks+am.AsyncSafes)/float64(am.Frames))
		}
		t.Rows = append(t.Rows, []string{
			f("%d", n), pct(equal, trials),
			f("%.0f", stats.Mean(syncRounds)), f("%.0f", stats.Mean(asyncRounds)),
			f("%.0f", stats.Mean(frames)), f("%.0f", stats.Mean(acks)),
			f("%.0f", stats.Mean(safes)), f("%.1f", stats.Mean(overhead)),
			f("%.0f", stats.Mean(vtime)),
		})
	}
	return []Table{*t}
}
