package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"nearclique/internal/flight"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// Search parity: the cached frontier bisection must return the same ε
// and a bit-identical Result as the per-probe sequential search, because
// the sampling coins never depend on ε — the cache re-evaluates only
// thresholds and votes. These tests pin that equivalence end to end.

func searchParityOptions(seed int64) SearchOptions {
	return SearchOptions{Rho: 0.05, ExpectedSample: 6, Versions: 2, Seed: seed}
}

func TestSearchFrontierMatchesSequentialSearch(t *testing.T) {
	type instance struct {
		g    *graph.Graph
		opts func(seed int64) SearchOptions
	}
	cases := map[string]instance{}
	for name, g := range determinismInstances() {
		cases[name] = instance{g, searchParityOptions}
	}
	// Denser sampling of a looser planted set: components reach k = 4..7
	// members, so many voters share a mask class and the kernel's class
	// histograms carry real multiplicities.
	cases["planted-k4+"] = instance{
		gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph,
		func(seed int64) SearchOptions {
			so := searchParityOptions(seed)
			so.ExpectedSample = 12
			return so
		},
	}
	for name, tc := range cases {
		g := tc.g
		for seed := int64(1); seed <= 4; seed++ {
			so := tc.opts(seed)
			wantEps, wantRes, wantErr := SearchContext(context.Background(), g, so)
			gotEps, gotRes, gotErr := SearchFrontierContext(context.Background(), g, so)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s seed %d: error mismatch: seq %v, frontier %v", name, seed, wantErr, gotErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrNotFound) || !errors.Is(wantErr, ErrNotFound) {
					t.Fatalf("%s seed %d: unexpected errors: seq %v, frontier %v", name, seed, wantErr, gotErr)
				}
				continue
			}
			if gotEps != wantEps {
				t.Fatalf("%s seed %d: ε %v != %v", name, seed, gotEps, wantEps)
			}
			if name == "planted-k4+" && gotRes.MaxComponent < 4 {
				t.Fatalf("%s seed %d: max component %d, want ≥ 4", name, seed, gotRes.MaxComponent)
			}
			if a, b := resultTranscript(gotRes, true), resultTranscript(wantRes, true); a != b {
				t.Fatalf("%s seed %d: frontier search result diverges:\n%s\nvs\n%s", name, seed, a, b)
			}
		}
	}
}

func TestSearchFrontierNotFoundParity(t *testing.T) {
	g := gen.Empty(300) // nothing to find at any ε
	so := SearchOptions{Rho: 0.5, ExpectedSample: 6, Seed: 3}
	_, _, seqErr := SearchContext(context.Background(), g, so)
	_, _, froErr := SearchFrontierContext(context.Background(), g, so)
	if !errors.Is(seqErr, ErrNotFound) || !errors.Is(froErr, ErrNotFound) {
		t.Fatalf("want ErrNotFound from both paths, got seq %v, frontier %v", seqErr, froErr)
	}
}

func TestSearchFrontierCancellation(t *testing.T) {
	g := gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SearchFrontierContext(ctx, g, searchParityOptions(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatal("cancellation misreported as ErrNotFound")
	}
}

// TestSearchWithRunnerEngineParity pins that a simulator-backed runner
// finds the same ε with the same protocol outputs (metrics aside) as the
// sequential probes — the engine independence Solver.Search relies on.
func TestSearchWithRunnerEngineParity(t *testing.T) {
	g := gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph
	so := searchParityOptions(2)
	seqEps, seqRes, err := SearchContext(context.Background(), g, so)
	if err != nil {
		t.Fatal(err)
	}
	shEps, shRes, err := SearchWithRunner(context.Background(), g, so, FindContext)
	if err != nil {
		t.Fatal(err)
	}
	if shEps != seqEps {
		t.Fatalf("sharded-probe search ε %v != sequential %v", shEps, seqEps)
	}
	if a, b := resultTranscript(shRes, false), resultTranscript(seqRes, false); a != b {
		t.Fatalf("sharded-probe search output diverges:\n%s\nvs\n%s", a, b)
	}
}

// TestFindFrontierMatchesSequentialAcrossGOMAXPROCS extends the engine
// determinism suite to the replay every centralized Solve engine runs:
// at every GOMAXPROCS setting its outputs equal the sharded simulator's,
// and its transcript, including the all-zero metrics block, is
// bit-identical.
func TestFindFrontierMatchesSequentialAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2}
	for name, g := range determinismInstances() {
		dist, err := Find(g, base)
		if err != nil {
			t.Fatal(err)
		}
		want := resultTranscript(dist, false)
		var full string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			res, err := FindSequential(g, base)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultTranscript(res, false); got != want {
				t.Fatalf("%s GOMAXPROCS=%d: replay diverges from the simulator:\n%s\nvs\n%s",
					name, procs, got, want)
			}
			if got := resultTranscript(res, true); full == "" {
				full = got
			} else if got != full {
				t.Fatalf("%s GOMAXPROCS=%d: replay transcript differs from GOMAXPROCS=1", name, procs)
			}
		}
	}
}

// TestFindFrontierFlightRoundEvents pins the flight contract of the
// replay: every traversal wave emits one KindRound event carrying a
// nonzero frontier popcount, and phases carry their wave counts.
func TestFindFrontierFlightRoundEvents(t *testing.T) {
	g := gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph
	rec := flight.New(4096)
	_, err := FindSequential(g, Options{
		Epsilon: 0.25, ExpectedSample: 6, Seed: 3, Versions: 2, Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds, phases := 0, 0
	var lastRound int64
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case flight.KindRound:
			rounds++
			if ev.Frontier <= 0 {
				t.Fatalf("round event %d has frontier popcount %d", rounds, ev.Frontier)
			}
			if ev.Frames <= 0 && ev.Frontier > 0 {
				// A wave over isolated sampled vertices can examine zero
				// arena entries; anything else must count frames.
				continue
			}
			if ev.Round <= lastRound {
				t.Fatalf("round index not increasing: %d after %d", ev.Round, lastRound)
			}
			lastRound = ev.Round
			if ev.Bytes != 4*ev.Frames {
				t.Fatalf("round payload %d != 4×frames %d", ev.Bytes, ev.Frames)
			}
		case flight.KindPhase:
			phases++
		}
	}
	if rounds == 0 {
		t.Fatal("replay emitted no per-wave round events")
	}
	if phases < 3 { // two explore versions + decide
		t.Fatalf("replay emitted %d phase events, want ≥ 3", phases)
	}
}

// TestSearchFrontierProbeAllocs pins the cached probe's allocation
// profile: after the shared traversal, a probe re-evaluates the K/T
// kernel, the votes and the density check in preallocated buffers and
// the pooled member set, and allocates nothing. This is the enforcement
// half of routing Search probes through pooled scratch.
func TestSearchFrontierProbeAllocs(t *testing.T) {
	g := gen.SparsePlantedNearClique(2000, 200, 0.01, 8, 5).Graph
	g.CSR()
	so, need, err := SearchOptions{Rho: 0.025, ExpectedSample: 40, Versions: 2, Seed: 3}.normalized(g.N())
	if err != nil {
		t.Fatal(err)
	}
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	cache, err := buildSearchCache(context.Background(), g, so, need, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !cache.probe(so.EpsMax) {
		t.Fatalf("εMax probe found nothing; the allocation measurement would be vacuous")
	}
	allocs := testing.AllocsPerRun(50, func() {
		cache.probe(0.3)
		cache.probe(0.1)
	})
	if allocs != 0 {
		t.Fatalf("cached probes allocate %.1f objects per pair, want 0", allocs)
	}
}

// BenchmarkSearchFrontier times one cached ε bisection at the shape of
// the repository benchmark's search workload: n = 1e5 with a planted
// ε³-near clique of 1000 nodes (ε = 0.25) over average degree 12, four
// versions each sampling one planted node in expectation. Iteration i
// searches with coin seed i+1, so ns/op averages over seeds.
func BenchmarkSearchFrontier(b *testing.B) {
	const n, size = 100_000, 1000
	g := gen.SparsePlantedNearClique(n, size, 0.25*0.25*0.25, 12, 1).Graph
	g.CSR()
	so := SearchOptions{
		Rho:            float64(size/4) / n,
		ExpectedSample: float64(n) / size,
		Versions:       4,
		EpsMin:         0.02,
		EpsMax:         0.45,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		so.Seed = int64(i + 1)
		if _, _, err := SearchFrontierContext(context.Background(), g, so); err != nil && !errors.Is(err, ErrNotFound) {
			b.Fatal(err)
		}
	}
}
