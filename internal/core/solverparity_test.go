package core_test

// Solver ⇄ core parity: the public Solver must reproduce the transcripts
// of the core entry points (core.Find, core.FindSequential) bit-for-bit
// — labels, candidates, sample sizes, and the complete simulator phase
// metrics — on every engine, and SolveBatch must hand back exactly the
// per-graph results Solve would, regardless of batch concurrency. This
// file lives in the external test package so it can exercise the real
// public surface against internal core entry points.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"nearclique"
	"nearclique/internal/core"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// canonResult renders everything observable about a Result, including the
// full per-phase simulator metrics.
func canonResult(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "samples=%v\nmaxcomp=%d\n", res.SampleSizes, res.MaxComponent)
	for _, c := range res.Candidates {
		for _, v := range c.Members {
			if l := res.Label(v); l != c.Label {
				fmt.Fprintf(&b, "node %d of candidate %d reads label %d\n", v, c.Label, l)
			}
		}
		fmt.Fprintf(&b, "cand label=%d ver=%d members=%v x=%v density=%.9f\n",
			c.Label, c.Version, c.Members, c.SubsetX, c.Density)
	}
	m := res.Metrics
	fmt.Fprintf(&b, "rounds=%d frames=%d bits=%d maxframe=%d\n",
		m.Rounds, m.Frames, m.Bits, m.MaxFrameBits)
	for _, ph := range m.Phases {
		fmt.Fprintf(&b, "phase %s: rounds=%d frames=%d bits=%d\n",
			ph.Name, ph.Rounds, ph.Frames, ph.Bits)
	}
	return b.String()
}

func parityInstances() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"planted": gen.PlantedNearClique(400, 120, 0.01, 0.02, 5).Graph,
		"sparse":  gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph,
		"er":      gen.ErdosRenyi(300, 0.05, 6),
	}
}

func paritySolver(t *testing.T, engine nearclique.Engine) *nearclique.Solver {
	t.Helper()
	s, err := nearclique.New(
		nearclique.WithEngine(engine),
		nearclique.WithEpsilon(0.25),
		nearclique.WithExpectedSample(6),
		nearclique.WithSeed(3),
		nearclique.WithVersions(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var parityLegacyOpts = core.Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2}

// TestSolverSolveMatchesLegacyFind pins Solver.Solve against the legacy
// core.Find / core.FindSequential transcripts on the same seed, engine by
// engine.
func TestSolverSolveMatchesLegacyFind(t *testing.T) {
	ctx := context.Background()
	for name, g := range parityInstances() {
		legacySeq, err := core.FindSequential(g, parityLegacyOpts)
		if err != nil {
			t.Fatal(err)
		}
		legacyDist, err := core.Find(g, parityLegacyOpts)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			engine nearclique.Engine
			want   *core.Result
		}{
			{nearclique.EngineAuto, legacySeq},
			{nearclique.EngineSequential, legacySeq},
			{nearclique.EngineSharded, legacyDist},
		}
		for _, tc := range cases {
			res, err := paritySolver(t, tc.engine).Solve(ctx, g)
			if err != nil {
				t.Fatalf("%s engine=%v: %v", name, tc.engine, err)
			}
			if got, want := canonResult(res), canonResult(tc.want); got != want {
				t.Fatalf("%s engine=%v: Solver transcript diverges from legacy:\n--- solver\n%s--- legacy\n%s",
					name, tc.engine, got, want)
			}
		}
	}
}

// TestSolveBatchMatchesSoloSolves pins batch serving against sequential
// solving: a batch of replicated instances at parallelism ≥ 8 must return
// exactly the transcript each solo Solve produces, for the pooled replay
// (auto and seq, whose runs get the batch's share of the workers) and
// the sharded simulator.
func TestSolveBatchMatchesSoloSolves(t *testing.T) {
	ctx := context.Background()
	var graphs []*graph.Graph
	var names []string
	instances := parityInstances()
	keys := make([]string, 0, len(instances))
	for name := range instances {
		keys = append(keys, name)
	}
	sort.Strings(keys) // batch order must not depend on map iteration
	for _, name := range keys {
		g := instances[name]
		graphs = append(graphs, g, g, g) // replicas: exercises scratch reuse
		names = append(names, name, name, name)
	}
	for _, engine := range []nearclique.Engine{
		nearclique.EngineAuto, nearclique.EngineSequential, nearclique.EngineSharded,
	} {
		s, err := nearclique.New(
			nearclique.WithEngine(engine),
			nearclique.WithEpsilon(0.25),
			nearclique.WithExpectedSample(6),
			nearclique.WithSeed(3),
			nearclique.WithVersions(2),
			nearclique.WithBatchWorkers(8),
		)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(graphs))
		for i, g := range graphs {
			res, err := s.Solve(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = canonResult(res)
		}
		for rep := 0; rep < 3; rep++ { // repeat: pool contents vary across reps
			results, err := s.SolveBatch(ctx, graphs)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if got := canonResult(res); got != want[i] {
					t.Fatalf("engine=%v rep=%d: batch item %d (%s) diverges from solo Solve:\n--- batch\n%s--- solo\n%s",
						engine, rep, i, names[i], got, want[i])
				}
			}
		}
	}
}

// TestSolveBatchPartialFailure pins the error contract: failing items
// report wrapped sentinel errors while the rest of the batch completes.
func TestSolveBatchPartialFailure(t *testing.T) {
	// With p = 1 every node is sampled: the complete graph yields one
	// giant component (ErrComponentTooLarge), the empty graph only
	// singletons (a clean, candidate-free run).
	bad := gen.Complete(64)
	good := gen.Empty(50)
	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSequential),
		nearclique.WithSamplingProbability(1),
		nearclique.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.SolveBatch(context.Background(), []*graph.Graph{bad, good})
	if err == nil {
		t.Fatal("oversized component in batch item 0 reported no error")
	}
	if !errors.Is(err, core.ErrComponentTooLarge) {
		t.Fatalf("joined batch error does not wrap ErrComponentTooLarge: %v", err)
	}
	if !strings.Contains(err.Error(), "batch item 0") {
		t.Fatalf("joined error does not name the failing item: %v", err)
	}
	if results[1] == nil {
		t.Fatal("healthy batch item did not complete after a sibling failed")
	}
}
