package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// Full-protocol determinism: Find must produce byte-identical results —
// labels, candidates, sample sizes, and the complete phase transcript —
// across worker counts, GOMAXPROCS settings, and the synchronous and
// asynchronous executors, and all of them must agree with the sequential
// reference.

// resultTranscript canonicalizes a Result. includeMetrics=false drops the
// simulator metrics (the sequential path has none; async differs in
// round/overhead counters by design).
func resultTranscript(res *Result, includeMetrics bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "labels=%v\nsamples=%v\nmaxcomp=%d\n",
		labeledNodes(res), res.SampleSizes, res.MaxComponent)
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, "cand label=%d ver=%d members=%v x=%v density=%.9f\n",
			c.Label, c.Version, c.Members, c.SubsetX, c.Density)
	}
	if includeMetrics {
		m := res.Metrics
		fmt.Fprintf(&b, "rounds=%d frames=%d bits=%d maxframe=%d\n",
			m.Rounds, m.Frames, m.Bits, m.MaxFrameBits)
		for _, ph := range m.Phases {
			fmt.Fprintf(&b, "phase %s: rounds=%d frames=%d bits=%d\n",
				ph.Name, ph.Rounds, ph.Frames, ph.Bits)
		}
	}
	return b.String()
}

// labeledNodes lists the nodes res labels, ascending, as node:label pairs
// read through Label: the output registers other than ⊥.
func labeledNodes(res *Result) []string {
	var nodes []int
	for _, c := range res.Candidates {
		nodes = append(nodes, c.Members...)
	}
	slices.Sort(nodes)
	out := make([]string, len(nodes))
	for i, v := range nodes {
		out[i] = fmt.Sprintf("%d:%d", v, res.Label(v))
	}
	return out
}

func determinismInstances() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"planted": gen.PlantedNearClique(400, 120, 0.01, 0.02, 5).Graph,
		"sparse":  gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph,
		"er":      gen.ErdosRenyi(300, 0.05, 6),
	}
}

func TestFindTranscriptAcrossEnginesAndWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2}
	for name, g := range determinismInstances() {
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, par := range []int{1, 4} {
				opts := base
				opts.Parallelism = par
				res, err := Find(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := resultTranscript(res, true)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("%s: transcript diverged at GOMAXPROCS=%d par=%d",
						name, procs, par)
				}
			}
		}
	}
}

func TestFindMatchesSequentialOnBothEngines(t *testing.T) {
	base := Options{Epsilon: 0.25, ExpectedSample: 7, Seed: 11, Versions: 2}
	for name, g := range determinismInstances() {
		seq, err := FindSequential(g, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, async := range []bool{false, true} {
			opts := base
			opts.Async = async
			dist, err := Find(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := resultTranscript(dist, false), resultTranscript(seq, false); a != b {
				t.Fatalf("%s async=%v: distributed vs sequential:\n%s\nvs\n%s", name, async, a, b)
			}
		}
	}
}

func TestFindAsyncMatchesSyncOnShardedEngine(t *testing.T) {
	base := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 17}
	for name, g := range determinismInstances() {
		sync, err := Find(g, base)
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.Async = true
		async, err := Find(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := resultTranscript(sync, false), resultTranscript(async, false); a != b {
			t.Fatalf("%s: async outputs differ from sync:\n%s\nvs\n%s", name, a, b)
		}
		if sync.Metrics.Frames != async.Metrics.Frames || sync.Metrics.Bits != async.Metrics.Bits {
			t.Fatalf("%s: async frames/bits differ from sync", name)
		}
	}
}

// TestFindContextCancelDeterministicPartialMetrics pins the full-protocol
// cancellation contract: canceling between phases (via the Progress hook,
// which fires deterministically) returns a wrapped context.Canceled with
// all-⊥ labels and valid partial metrics, and the partial metric
// transcript is bit-identical across repeated runs and worker counts.
func TestFindContextCancelDeterministicPartialMetrics(t *testing.T) {
	const cancelAfterStep = 5
	g := gen.PlantedNearClique(400, 120, 0.01, 0.02, 5).Graph
	run := func(par int) (string, *Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err := FindContext(ctx, g, Options{
			Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2, Parallelism: par,
			Progress: func(p Progress) {
				if p.Step == cancelAfterStep {
					cancel()
				}
			},
		})
		return resultTranscript(res, true), res, err
	}
	var want string
	for _, par := range []int{1, 4} {
		a, res, errA := run(par)
		b, _, errB := run(par)
		if !errors.Is(errA, context.Canceled) || !errors.Is(errB, context.Canceled) {
			t.Fatalf("Parallelism %d: want wrapped context.Canceled, got %v / %v", par, errA, errB)
		}
		for v := 0; v < g.N(); v++ {
			if l := res.Label(v); l != NoLabel {
				t.Fatalf("Parallelism %d: node %d labeled %d in an aborted run", par, v, l)
			}
		}
		if len(res.Metrics.Phases) == 0 || res.Metrics.Rounds == 0 {
			t.Fatalf("Parallelism %d: canceled run carries no partial metrics", par)
		}
		if a != b {
			t.Fatalf("Parallelism %d: repeated canceled runs differ:\n%s\nvs\n%s", par, a, b)
		}
		if want == "" {
			want = a
		} else if a != want {
			t.Fatalf("canceled partial transcripts differ across worker counts:\n%s\nvs\n%s", a, want)
		}
	}
}

// TestFindSequentialCancelBetweenVersions pins the sequential engine's
// cancellation points: the Progress hook after version 0 cancels, version
// 1 never runs, and the partial result still carries version 0's sample
// size and every node's Label is ⊥, at Parallelism 1 and 2.
func TestFindSequentialCancelBetweenVersions(t *testing.T) {
	g := gen.PlantedNearClique(400, 120, 0.01, 0.02, 5).Graph
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := FindSequentialContext(ctx, g, Options{
			Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 3, Parallelism: par,
			Progress: func(p Progress) {
				if p.Version == 0 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Parallelism %d: want wrapped context.Canceled, got %v", par, err)
		}
		if res.SampleSizes[0] == 0 {
			t.Fatalf("Parallelism %d: version 0 sample size missing from partial result", par)
		}
		if res.SampleSizes[1] != 0 || res.SampleSizes[2] != 0 {
			t.Fatalf("Parallelism %d: versions after the cancellation point ran: %v", par, res.SampleSizes)
		}
		for v := 0; v < g.N(); v++ {
			if l := res.Label(v); l != NoLabel {
				t.Fatalf("Parallelism %d: node %d labeled %d in a canceled run", par, v, l)
			}
		}
	}
}

// TestFindRepeatableExactly double-checks that repeated runs share even
// the unexported engine state trajectory (via reflect.DeepEqual on the
// full public result).
func TestFindRepeatableExactly(t *testing.T) {
	g := gen.SparsePlantedNearClique(500, 150, 0.01, 10, 9).Graph
	opts := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 4, Versions: 3}
	a, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different results")
	}
}
