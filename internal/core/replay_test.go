package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// TestGatherVotersMatchesModel pins component-local voter gathering to
// the set-algebraic model members ∪ (Γ(members) \ S) on random and
// planted graphs: sorted, duplicate-free — a neighbor shared by two
// members appears once — and the pooled mark set all-zero after every
// component.
func TestGatherVotersMatchesModel(t *testing.T) {
	cases := map[string]*graph.Graph{
		"er":      gen.ErdosRenyi(300, 0.05, 6),
		"planted": gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph,
		"sparse":  gen.SparsePlantedNearClique(2000, 200, 0.01, 8, 5).Graph,
	}
	shared := 0 // voters adjacent to two or more members, over all components
	for name, g := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			opts, err := Options{Epsilon: 0.25, ExpectedSample: 12, Seed: seed, Versions: 2}.validated(g.N())
			if err != nil {
				t.Fatal(err)
			}
			scratch := getSeqScratch()
			res := &Result{SampleSizes: make([]int, opts.Versions)}
			_, err = collectComps(context.Background(), g, opts, scratch, nil, res, func(sc *seqComp) {
				if c := scratch.mark.Count(); c != 0 {
					t.Fatalf("%s seed %d: %d mark bits left set after a component", name, seed, c)
				}
				members := make([]int, len(sc.members))
				for i, m := range sc.members {
					members[i] = int(m)
				}
				model := bitset.FromIndices(g.N(), members)
				hits := map[int]int{}
				for _, m := range members {
					for _, w := range g.Neighbors(m) {
						if u := int(w); !scratch.inS.Contains(u) {
							model.Add(u)
							hits[u]++
						}
					}
				}
				for _, c := range hits {
					if c > 1 {
						shared++
					}
				}
				if want := model.Indices(); !slices.Equal(sc.voters, want) {
					t.Fatalf("%s seed %d members %v:\nvoters %v\nmodel  %v", name, seed, members, sc.voters, want)
				}
			})
			putSeqScratch(scratch)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no voter was adjacent to two members; the dedup case went untested")
	}
}

// TestReplayScratchZeroAfterRun pins the all-zero invariant of the
// graph-sized scratch that the replay sets and clears entry by entry —
// the K/T kernel's dense voter index, and the mark set that dedups
// voters and tracks the ID walk's positions — after a solve, after a
// search and its probes, and after an ErrComponentTooLarge abort that
// follows built components.
func TestReplayScratchZeroAfterRun(t *testing.T) {
	ctx := context.Background()
	g := gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	check := func(stage string, comps []*seqComp) {
		t.Helper()
		if len(comps) == 0 {
			t.Fatalf("%s: no component was built; the check would be vacuous", stage)
		}
		if c := scratch.mark.Count(); c != 0 {
			t.Fatalf("%s: %d mark bits left set", stage, c)
		}
		for v, p := range scratch.kt.voterPos {
			if p != 0 {
				t.Fatalf("%s: voter index of node %d left at %d", stage, v, p)
			}
		}
	}

	opts, err := Options{Epsilon: 0.25, ExpectedSample: 12, Seed: 1, Versions: 2}.validated(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Labels: make([]int64, g.N()), SampleSizes: make([]int, opts.Versions)}
	comps, err := collectComps(ctx, g, opts, scratch, nil, res, func(sc *seqComp) {
		sc.finish(opts.Epsilon, opts.MinSize, &scratch.kt)
	})
	if err != nil {
		t.Fatal(err)
	}
	decideAndCommit(g, opts, comps, res)
	check("solve", comps)

	so, need, err := SearchOptions{Rho: 0.05, ExpectedSample: 12, Versions: 2, Seed: 1}.normalized(g.N())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := buildSearchCache(ctx, g, so, need, scratch)
	if err != nil || cache.failed {
		t.Fatalf("search cache: err %v, failed %v", err, cache.failed)
	}
	cache.probe(so.EpsMax)
	cache.probe(so.EpsMin)
	cache.materialize(so.EpsMax)
	check("search", cache.comps)

	opts.MaxComponentSize = 6 // seed 1 builds six components, then meets one of seven
	res = &Result{SampleSizes: make([]int, opts.Versions)}
	comps, err = collectComps(ctx, g, opts, scratch, nil, res, func(*seqComp) {})
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("abort: err %v, want ErrComponentTooLarge", err)
	}
	check("abort", comps)
}

// replayInstance is the n = 2e5 shape of the replay's allocation test and
// benchmark: a planted ε³-near clique of 1000 nodes (ε = 0.25) over
// average degree 10, sampled at λ = 2 planted nodes per solve in
// expectation.
func replayInstance() (*graph.Graph, Options) {
	const n, size = 200_000, 1000
	g := gen.SparsePlantedNearClique(n, size, 0.25*0.25*0.25, 10, 1).Graph
	g.CSR()
	return g, Options{Epsilon: 0.25, ExpectedSample: 2 * float64(n) / size, Seed: 1}
}

// TestSolveReplayAllocsPerNode pins the replay's allocation budget: once
// the scratch pool is warm, a solve on the n = 2e5 planted instance
// allocates at most 32 bytes per node. The Labels output alone is 8;
// everything else graph-sized — coins, IDs, traversal and mark sets — is
// pooled. One P keeps the pooled scratch on the P that put it back.
func TestSolveReplayAllocsPerNode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, opts := replayInstance()
	const runs = 4
	solveAll := func() {
		for i := 0; i < runs; i++ {
			opts.Seed = int64(i + 1)
			if _, err := FindSequentialContext(context.Background(), g, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll() // warm-up: the pool and the kernel buffers reach their size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solveAll()
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(g.N())
	t.Logf("%.1f B/node per solve", perNode)
	if perNode > 32 {
		t.Fatalf("a solve allocates %.1f B/node, want ≤ 32", perNode)
	}
}

// BenchmarkSolveReplay times the replay that Solve runs for engine=auto
// (and seq and frontier) on the n = 2e5 planted instance. Iteration i
// solves with coin seed i+1, so ns/op averages over seeds.
func BenchmarkSolveReplay(b *testing.B) {
	g, opts := replayInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, err := FindSequentialContext(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
