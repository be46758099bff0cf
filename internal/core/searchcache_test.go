package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// Search parity: the cached bisection must return the same ε
// and a bit-identical Result as the per-probe sequential search, because
// the sampling coins never depend on ε — the cache re-evaluates only
// thresholds and votes. These tests pin that equivalence end to end.

func searchParityOptions(seed int64) SearchOptions {
	return SearchOptions{Rho: 0.05, ExpectedSample: 6, Versions: 2, Seed: seed}
}

func TestSearchCachedMatchesSequentialSearch(t *testing.T) {
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
			wantEps, wantRes, wantErr := SearchWithRunner(context.Background(), g, so, FindSequentialContext)
			gotEps, gotRes, gotErr := SearchCachedContext(context.Background(), g, so)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s seed %d: error mismatch: seq %v, cached %v", name, seed, wantErr, gotErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrNotFound) || !errors.Is(wantErr, ErrNotFound) {
					t.Fatalf("%s seed %d: unexpected errors: seq %v, cached %v", name, seed, wantErr, gotErr)
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
				t.Fatalf("%s seed %d: cached search result diverges:\n%s\nvs\n%s", name, seed, a, b)
			}
		}
	}
}

func TestSearchCachedNotFoundParity(t *testing.T) {
	g := gen.Empty(300) // nothing to find at any ε
	so := SearchOptions{Rho: 0.5, ExpectedSample: 6, Seed: 3}
	_, _, seqErr := SearchWithRunner(context.Background(), g, so, FindSequentialContext)
	_, _, cachedErr := SearchCachedContext(context.Background(), g, so)
	if !errors.Is(seqErr, ErrNotFound) || !errors.Is(cachedErr, ErrNotFound) {
		t.Fatalf("want ErrNotFound from both paths, got seq %v, cached %v", seqErr, cachedErr)
	}
}

func TestSearchCachedCancellation(t *testing.T) {
	g := gen.SparsePlantedNearClique(400, 120, 0.01, 8, 5).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := SearchCachedContext(ctx, g, searchParityOptions(1))
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
	seqEps, seqRes, err := SearchWithRunner(context.Background(), g, so, FindSequentialContext)
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

// checkDensity asserts that the cache's density check of component ci
// equals Graph.Density of ci's T set built fresh, bit for bit, and
// hands the mark set back all-zero. It reports whether ci keeps rows; a
// component that cannot announce has no T set and is not checked.
func checkDensity(t testing.TB, cache *searchCache, ci int) bool {
	t.Helper()
	sc := cache.comps[ci]
	if !sc.canAnnounce(cache.need) {
		return false
	}
	var members []int
	for i, u := range sc.voters {
		if sc.inT(i, sc.bStar) {
			members = append(members, u)
		}
	}
	fresh := bitset.FromIndices(cache.g.N(), members)
	if got, want := cache.density(ci), cache.g.Density(fresh); got != want {
		t.Fatalf("component %d (%d T members, rows %v): density %v != Graph.Density %v",
			ci, len(members), sc.kt.rows != nil, got, want)
	}
	if c := cache.set.Count(); c != 0 {
		t.Fatalf("component %d: %d mark bits left set after its density check", ci, c)
	}
	return sc.kt.rows != nil
}

// TestSearchProbeDensityMatchesGraphDensity pins the probes' density
// check on a multi-component instance whose components that can
// announce include dense ones, which keep rows, and hubs, which do not.
// One cache is driven through the bisection's ε order, then through a
// seeded random order with repeats. After every probe each such
// component's density at that ε — the best committed one's first — must
// equal Graph.Density of its T set built fresh, and each probe's
// verdict must equal a full FindSequentialContext probe's.
func TestSearchProbeDensityMatchesGraphDensity(t *testing.T) {
	ctx := context.Background()
	g, _ := hubInstance()
	so, need, err := SearchOptions{Rho: 0.02, ExpectedSample: 200, Versions: 4, Seed: 3}.normalized(g.N())
	if err != nil {
		t.Fatal(err)
	}
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	cache, err := buildSearchCache(ctx, g, so, need, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.comps) < 2 {
		t.Fatalf("%d components; the instance must have several", len(cache.comps))
	}
	rng := rand.New(rand.NewSource(7))
	withRows, without := 0, 0
	probe := func(eps float64) bool {
		got := cache.probe(eps)
		res, err := FindSequentialContext(ctx, g, Options{
			Epsilon: eps, ExpectedSample: so.ExpectedSample, Seed: so.Seed,
			Versions: so.Versions, MinSize: need,
		})
		if err != nil {
			t.Fatal(err)
		}
		best := res.Best()
		if want := best != nil && len(best.Members) >= need && best.Density >= 1-eps-1e-9; got != want {
			t.Fatalf("ε=%v: cached probe %v, full probe %v", eps, got, want)
		}
		if bi := cache.bestCommitted(); bi >= 0 {
			checkDensity(t, cache, bi)
		}
		for _, ci := range rng.Perm(len(cache.comps)) {
			switch {
			case !cache.comps[ci].canAnnounce(need):
			case checkDensity(t, cache, ci):
				withRows++
			default:
				without++
			}
		}
		return got
	}

	lo, hi := so.EpsMin, so.EpsMax
	if !probe(hi) {
		t.Fatal("εMax probe found nothing; the bisection would visit one ε")
	}
	for step := 0; step < so.Steps; step++ {
		if mid := (lo + hi) / 2; probe(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	var pool [12]float64
	for i := range pool {
		pool[i] = so.EpsMin + (so.EpsMax-so.EpsMin)*rng.Float64()
	}
	for i := 0; i < 40; i++ {
		probe(pool[rng.Intn(len(pool))])
	}
	if withRows == 0 || without == 0 {
		t.Fatalf("%d checks with rows, %d without; want both", withRows, without)
	}
	cache.materialize(hi)
	if c := cache.set.Count(); c != 0 {
		t.Fatalf("%d mark bits left set after materialize", c)
	}
}

// TestSearchCachedProbeAllocs pins the cached probe's allocation
// profile: after the shared traversal, a probe re-evaluates the K/T
// kernel, the votes and the density check in preallocated buffers, and
// allocates nothing. This is the enforcement
// half of routing Search probes through pooled scratch.
func TestSearchCachedProbeAllocs(t *testing.T) {
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

// BenchmarkSearchCached times one cached ε bisection at the shape of
// the repository benchmark's search workload: n = 1e5 with a planted
// ε³-near clique of 1000 nodes (ε = 0.25) over average degree 12, four
// versions each sampling one planted node in expectation. Iteration i
// searches with coin seed i+1, so ns/op averages over seeds.
func BenchmarkSearchCached(b *testing.B) {
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
		if _, _, err := SearchCachedContext(context.Background(), g, so); err != nil && !errors.Is(err, ErrNotFound) {
			b.Fatal(err)
		}
	}
}
