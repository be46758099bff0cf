package nearclique_test

import (
	"context"
	"math"
	"testing"

	"nearclique"
	"nearclique/internal/core"
)

func TestNewValidatesEagerly(t *testing.T) {
	bad := []struct {
		name string
		opt  nearclique.Option
	}{
		{"epsilon high", nearclique.WithEpsilon(0.6)},
		{"epsilon zero", nearclique.WithEpsilon(0)},
		{"sample zero", nearclique.WithExpectedSample(0)},
		{"probability high", nearclique.WithSamplingProbability(1.5)},
		{"versions zero", nearclique.WithVersions(0)},
		{"minsize negative", nearclique.WithMinSize(-1)},
		{"rounds negative", nearclique.WithMaxRounds(-1)},
		{"component huge", nearclique.WithMaxComponentSize(99)},
		{"parallelism negative", nearclique.WithParallelism(-1)},
		{"engine invalid", nearclique.WithEngine(nearclique.Engine(250))},
		{"batch negative", nearclique.WithBatchWorkers(-1)},
		{"search steps zero", nearclique.WithSearchSteps(0)},
		{"search bounds flipped", nearclique.WithSearchBounds(0.4, 0.1)},
		{"epsilon NaN", nearclique.WithEpsilon(math.NaN())},
		{"epsilon +Inf", nearclique.WithEpsilon(math.Inf(1))},
		{"epsilon -Inf", nearclique.WithEpsilon(math.Inf(-1))},
		{"sample NaN", nearclique.WithExpectedSample(math.NaN())},
		{"sample +Inf", nearclique.WithExpectedSample(math.Inf(1))},
		{"probability NaN", nearclique.WithSamplingProbability(math.NaN())},
		{"probability +Inf", nearclique.WithSamplingProbability(math.Inf(1))},
		{"search min NaN", nearclique.WithSearchBounds(math.NaN(), 0.3)},
		{"search max NaN", nearclique.WithSearchBounds(0.1, math.NaN())},
		{"search min -Inf", nearclique.WithSearchBounds(math.Inf(-1), 0.3)},
		{"confidence NaN", nearclique.WithConfidence(math.NaN())},
		{"confidence +Inf", nearclique.WithConfidence(math.Inf(1))},
	}
	for _, tc := range bad {
		if _, err := nearclique.New(tc.opt); err == nil {
			t.Errorf("%s: New accepted an invalid option", tc.name)
		}
	}
	if _, err := nearclique.New(); err != nil {
		t.Fatalf("New with defaults failed: %v", err)
	}
}

func TestParseEngineRoundTrips(t *testing.T) {
	for _, e := range []nearclique.Engine{
		nearclique.EngineAuto, nearclique.EngineSequential,
		nearclique.EngineSharded, nearclique.EngineAsync,
	} {
		got, err := nearclique.ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := nearclique.ParseEngine("quantum"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
}

// TestSolverIsReusableAndDeterministic: repeated Solve calls on one
// Solver give identical results — the pooled scratch is invisible.
func TestSolverIsReusableAndDeterministic(t *testing.T) {
	g := genPlanted(t, 300, 100, 0.01, 0.04, 9).Graph
	s, err := nearclique.New(nearclique.WithSeed(11), nearclique.WithVersions(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Solve(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := s.Solve(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if a.Label(v) != b.Label(v) {
				t.Fatalf("repeat %d: label %d differs", i, v)
			}
		}
	}
}

// TestSolverSearchMatchesCoreSearchCached: a default Solver's Search is
// the cached bisection core.SearchCachedContext at the same seed.
func TestSolverSearchMatchesCoreSearchCached(t *testing.T) {
	g := genPlanted(t, 240, 90, 0.01, 0.03, 13).Graph
	eps1, res1, err1 := core.SearchCachedContext(context.Background(), g, core.SearchOptions{Rho: 0.3, Seed: 13})
	s, err := nearclique.New(nearclique.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	eps2, res2, err2 := s.Search(context.Background(), g, 0.3)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: %v vs %v", err1, err2)
	}
	if err1 == nil {
		if eps1 != eps2 {
			t.Fatalf("ε mismatch: %v vs %v", eps1, eps2)
		}
		if len(res1.Best().Members) != len(res2.Best().Members) {
			t.Fatal("result mismatch between core.SearchCachedContext and Solver.Search")
		}
	}
}

// TestBuildAutoSelectsRepresentation pins the DESIGN.md §7 thresholds at
// the public surface.
func TestBuildAutoSelectsRepresentation(t *testing.T) {
	small := nearclique.Build(100, [][2]int{{0, 1}, {1, 2}})
	if !small.HasDenseRows() {
		t.Fatal("small graph did not get dense bitsets")
	}
	big := nearclique.Build(70_000, [][2]int{{0, 1}, {2, 69_999}})
	if big.HasDenseRows() {
		t.Fatal("70k-node sparse graph got dense bitsets")
	}
	if !big.HasEdge(2, 69_999) || big.HasEdge(0, 2) {
		t.Fatal("sparse-path edge queries wrong")
	}

	b := nearclique.NewGraphBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 2) // duplicate: ignored
	b.AddEdge(3, 3) // self-loop: ignored
	g := b.Build()
	if g.N() != 5 || g.M() != 2 {
		t.Fatalf("GraphBuilder produced N=%d M=%d", g.N(), g.M())
	}
}

// TestGenerateUnifiedEntryPoint covers family dispatch, auto-selection,
// and validation errors of the Generate entry point.
func TestGenerateUnifiedEntryPoint(t *testing.T) {
	small, err := nearclique.Generate(nearclique.GenSpec{Family: "er", N: 200, P: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !small.Graph.HasDenseRows() {
		t.Fatal("small ER graph should take the dense path")
	}
	big, err := nearclique.Generate(nearclique.GenSpec{Family: "er", N: 80_000, P: 0.0001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.Graph.HasDenseRows() {
		t.Fatal("80k-node ER graph should take the sparse path")
	}

	planted, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 300, Size: 90, EpsIn: 0.01, P: 0.03, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(planted.Planted) != 90 {
		t.Fatalf("planted ground truth has %d members, want 90", len(planted.Planted))
	}
	if !nearclique.IsNearClique(planted.Graph, planted.Planted, 0.02) {
		t.Fatal("planted set is not the promised near-clique")
	}

	// Same spec, same graph: the representation choice is deterministic.
	again, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 300, Size: 90, EpsIn: 0.01, P: 0.03, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Graph.M() != planted.Graph.M() {
		t.Fatal("Generate is not deterministic")
	}

	for _, bad := range []nearclique.GenSpec{
		{Family: "nope", N: 10},
		{Family: "er", N: 0},
		{Family: "er", N: 10, P: 2},
		{Family: "planted", N: 10, Size: 50},
		{Family: "shingles", N: 4},
		{Family: "web", N: 10, M: 0},
	} {
		if _, err := nearclique.Generate(bad); err == nil {
			t.Errorf("Generate accepted invalid spec %+v", bad)
		}
	}

	// Structural families.
	star, err := nearclique.Generate(nearclique.GenSpec{Family: "star", N: 9})
	if err != nil || star.Graph.M() != 8 {
		t.Fatalf("star: %v, M=%d", err, star.Graph.M())
	}
	geo, err := nearclique.Generate(nearclique.GenSpec{Family: "geometric", N: 50, Radius: 0.3, Seed: 3})
	if err != nil || len(geo.Positions) != 50 {
		t.Fatalf("geometric: %v, %d positions", err, len(geo.Positions))
	}

	// Structural families at scale must take the sparse path (no n²-bit
	// dense adjacency): a 200k-node star is built in O(n).
	bigStar, err := nearclique.Generate(nearclique.GenSpec{Family: "star", N: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if bigStar.Graph.M() != 199_999 || bigStar.Graph.HasDenseRows() {
		t.Fatalf("200k star: M=%d denseRows=%v", bigStar.Graph.M(), bigStar.Graph.HasDenseRows())
	}
	// Inherently quadratic families are capped with a clear error.
	if _, err := nearclique.Generate(nearclique.GenSpec{Family: "complete", N: 1 << 20}); err == nil {
		t.Fatal("million-node complete graph accepted")
	}
	if _, err := nearclique.Generate(nearclique.GenSpec{Family: "geometric", N: 1 << 20, Radius: 0.1}); err == nil {
		t.Fatal("million-node geometric graph accepted")
	}
}

// TestSearchHonorsSamplingProbability pins that a solver configured with
// WithSamplingProbability probes Search at the equivalent expected
// sample, not the default.
func TestSearchHonorsSamplingProbability(t *testing.T) {
	g := genPlanted(t, 240, 90, 0.01, 0.03, 13).Graph
	p := 10.0 / float64(g.N())
	s, err := nearclique.New(nearclique.WithSeed(13), nearclique.WithSamplingProbability(p))
	if err != nil {
		t.Fatal(err)
	}
	eps1, _, err1 := s.Search(context.Background(), g, 0.3)
	eps2, _, err2 := core.SearchCachedContext(context.Background(), g, core.SearchOptions{
		Rho: 0.3, Seed: 13, ExpectedSample: p * float64(g.N()),
	})
	if (err1 == nil) != (err2 == nil) || (err1 == nil && eps1 != eps2) {
		t.Fatalf("Search (p=%v) diverges from equivalent expected-sample search: %v/%v vs %v/%v",
			p, eps1, err1, eps2, err2)
	}
}

// TestSearchHonorsMaxComponentSize pins that Search probes with the
// configured component cap, as Solve does: on this instance a sampled
// component exceeds the default cap of 16, so a search at that default
// finds nothing. Only the replay engines run here: a simulated search
// enumerates 2^17 subsets per probe.
func TestSearchHonorsMaxComponentSize(t *testing.T) {
	g := genPlanted(t, 400, 200, 0, 0.01, 3).Graph
	for _, engine := range []nearclique.Engine{nearclique.EngineAuto, nearclique.EngineSequential} {
		s, err := nearclique.New(
			nearclique.WithEngine(engine),
			nearclique.WithExpectedSample(28),
			nearclique.WithSeed(3),
			nearclique.WithVersions(1),
			nearclique.WithMaxComponentSize(17),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("%v: Solve: %v", engine, err)
		}
		if res.MaxComponent <= 16 {
			t.Fatalf("%v: max component %d, want > 16 (the default cap)", engine, res.MaxComponent)
		}
		eps, res, err := s.Search(context.Background(), g, 0.3)
		if err != nil {
			t.Fatalf("%v: Search: %v", engine, err)
		}
		best := res.Best()
		if best == nil || len(best.Members) < 120 || eps >= 0.1 {
			t.Fatalf("%v: Search ε=%v best %+v, want a ≥ 120-member near-clique at small ε", engine, eps, best)
		}
	}
}
