package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// ktOracleEps is the ε grid of the kernel oracle: ordinary values, the
// values where (1−ε)·|K| is an exact integer for |K| a multiple of 4 or
// 8, and every ε = √(m/2p) (p ≤ 6, 0 < m < p) at which (1−2ε²)·p is an
// integer up to rounding — the boundaries where the integer threshold
// table must reproduce meetsK's float comparison exactly.
func ktOracleEps() []float64 {
	eps := []float64{0.02, 0.1, 0.125, 0.2, 0.25, 0.3, 0.375, 0.45}
	for p := 2; p <= 6; p++ {
		for m := 1; m < p; m++ {
			if e := math.Sqrt(float64(m) / float64(2*p)); e < 0.5 {
				eps = append(eps, e)
			}
		}
	}
	return eps
}

// kernelComp builds a component over the given members the way the
// replays do — voters are the members plus all their neighbors — and
// captures its kernel tables, with voter rows or without, on two
// workers where the component's adjacency is large enough to split.
func kernelComp(g *graph.Graph, members []int, ver int, x *ktScratch, rows bool) *seqComp {
	sc := newSeqComp(members, ver)
	voters := bitset.FromIndices(g.N(), members)
	for _, m := range members {
		for _, w := range g.Neighbors(m) {
			voters.Add(int(w))
		}
	}
	sc.voters = voters.Indices()
	sc.buildKT(g, x, 2, rows)
	return sc
}

// TestKTKernelMatchesGraphOracle pins the kernel, with voter rows and
// without, against the paper's definitions evaluated straight from the
// graph: for every subset X_b, kcounts[b] = |K_{2ε²}(X_b)| and voter
// u's T bit = [u ∈ T_ε(X_b)], with T_ε(X_b) containing no non-voter.
func TestKTKernelMatchesGraphOracle(t *testing.T) {
	for _, rows := range []bool{false, true} {
		ktOracle(t, rows)
	}
}

func ktOracle(t *testing.T, rows bool) {
	x := ktScratch{voterPos: make([]int32, 300)}
	for trial := 0; trial < 12; trial++ {
		p := gen.PlantedNearClique(300, 110, 0.05, 0.03, int64(trial+1))
		g := p.Graph
		rng := rand.New(rand.NewSource(int64(trial)))
		k := 1 + trial%6
		pool := append([]int(nil), p.D...)
		if trial%3 == 2 {
			pool = append(pool, rng.Perm(g.N())[:20]...) // mix in background nodes
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		members := dedupSorted(pool, k)
		sc := kernelComp(g, members, 0, &x, rows)
		if len(sc.voters) < 100 {
			t.Fatalf("trial %d: only %d voters; the oracle wants hundreds", trial, len(sc.voters))
		}
		for _, eps := range ktOracleEps() {
			sc.evalKT(eps, &x)
			for b := int32(1); b < 1<<uint(k); b++ {
				xb := bitset.FromIndices(g.N(), decodeSubset(sc.members, b))
				if want := g.K(xb, 2*eps*eps).Count(); int(x.kcounts[b]) != want {
					t.Fatalf("rows %v trial %d k=%d ε=%v b=%b: kcounts %d, |K_2ε²(X)| %d", rows, trial, k, eps, b, x.kcounts[b], want)
				}
				wantT := g.T(xb, eps)
				inT := 0
				for i, u := range sc.voters {
					if sc.inT(i, b) != wantT.Contains(u) {
						t.Fatalf("rows %v trial %d k=%d ε=%v b=%b voter %d: T bit %v, oracle %v", rows, trial, k, eps, b, u, sc.inT(i, b), wantT.Contains(u))
					}
					if sc.inT(i, b) {
						inT++
					}
				}
				if inT != wantT.Count() || int(sc.tcounts[b]) != inT {
					t.Fatalf("rows %v trial %d k=%d ε=%v b=%b: tcounts %d, T bits %d, |T_ε(X)| %d", rows, trial, k, eps, b, sc.tcounts[b], inT, wantT.Count())
				}
			}
		}
	}
}

// dedupSorted returns the first k distinct values of pool, sorted.
func dedupSorted(pool []int, k int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range pool {
		if !seen[v] && len(out) < k {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// TestSearchCacheEvaluateMatchesFreshFinish pins the probe cache's reuse
// of kernel buffers: at every ε the bisection visits, each cached
// component holds the same bStar, size, tcounts and T rows as a
// component built from scratch and finished at that ε alone.
func TestSearchCacheEvaluateMatchesFreshFinish(t *testing.T) {
	g := gen.PlantedNearClique(400, 120, 0.1, 0.02, 5).Graph
	so, need, err := SearchOptions{Rho: 0.05, ExpectedSample: 12, Versions: 2, Seed: 1}.normalized(g.N())
	if err != nil {
		t.Fatal(err)
	}
	scratch := getSeqScratch()
	defer putSeqScratch(scratch)
	cache, err := buildSearchCache(context.Background(), g, so, need, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if cache.maxComponent < 4 {
		t.Fatalf("max component %d; the instance must reach k ≥ 4", cache.maxComponent)
	}
	fresh := ktScratch{voterPos: make([]int32, g.N())}
	probe := func(eps float64) bool {
		cache.evaluate(eps)
		for ci, sc := range cache.comps {
			members := make([]int, len(sc.members))
			for i, m := range sc.members {
				members[i] = int(m)
			}
			f := newSeqComp(members, sc.version)
			f.voters = sc.voters
			if f.canAnnounce(need) {
				f.buildKT(g, &fresh, 1, denseRows(g, f.voters))
			}
			f.finish(eps, need, &fresh)
			if f.bStar != sc.bStar || f.size != sc.size ||
				!slices.Equal(f.tcounts, sc.tcounts) || !slices.Equal(f.tbits, sc.tbits) {
				t.Fatalf("ε=%v comp %d: cached (bStar %d, size %d) diverges from fresh (bStar %d, size %d)",
					eps, ci, sc.bStar, sc.size, f.bStar, f.size)
			}
		}
		return cache.probe(eps)
	}
	lo, hi := so.EpsMin, so.EpsMax
	if !probe(hi) {
		t.Fatal("εMax probe found nothing; the bisection would visit one ε")
	}
	hits := 0
	for step := 0; step < so.Steps; step++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			hi = mid
			hits++
		} else {
			lo = mid
		}
	}
	if hits == 0 || hits == so.Steps {
		t.Fatalf("bisection went one way on all %d steps; want both outcomes", so.Steps)
	}
}

// withHubs returns the planted graph with nHubs hubs added, each joined
// to leaves leaves of degree one, and the hubs' nodes. A component
// holding a hub has |V| ≈ leaves+1 voters but Σ deg ≈ 2·leaves, so at
// leaves ≥ 150 its rows would outweigh its adjacency: it is sparse.
func withHubs(p gen.Planted, nHubs, leaves int) (g *graph.Graph, hubs []int) {
	n := p.Graph.N() + nHubs*(1+leaves)
	var edges [][2]int
	for u := 0; u < p.Graph.N(); u++ {
		for _, w := range p.Graph.Neighbors(u) {
			if u < int(w) {
				edges = append(edges, [2]int{u, int(w)})
			}
		}
	}
	for h := 0; h < nHubs; h++ {
		hub := p.Graph.N() + h*(1+leaves)
		hubs = append(hubs, hub)
		for l := 1; l <= leaves; l++ {
			edges = append(edges, [2]int{hub, hub + l})
		}
	}
	return graph.FromEdges(n, edges), hubs
}

// hubInstance is a planted near-clique of 150 nodes (degree ≈ 140)
// among 450 background nodes, beside 20 hubs of 300 leaves each. A
// hub's component has ≈ 301 voters, whose rows would take ≈ 1500 words
// against ≈ 600 adjacency entries. The planted component is dense, and
// its adjacency crosses the split threshold, so its rows are written by
// two workers.
func hubInstance() (*graph.Graph, []int) {
	return withHubs(gen.PlantedNearClique(600, 150, 0.05, 0.01, 3), 20, 300)
}

// TestRowKernelMatchesEntryKernel pins both sides of the row rule on
// the replay's own components. Through collectComps, a component that
// cannot announce gets no kernel tables, a hub's component keeps no
// rows, and a dense one keeps them. Rebuilt with rows and without, each
// component with tables gives equal T tables, tcounts and bStar at
// every ε of the oracle grid, and its density both ways equals
// Graph.Density of its T set built fresh.
func TestRowKernelMatchesEntryKernel(t *testing.T) {
	const floor = 20
	g, hubs := hubInstance()
	var comps []*seqComp
	skipped, dense, sparse, hubComps := 0, 0, 0, 0
	for seed := int64(1); seed <= 8 && (hubComps == 0 || dense == 0); seed++ {
		opts, err := Options{Epsilon: 0.25, ExpectedSample: 200, Seed: seed, Versions: 2, MinSize: floor}.validated(g.N())
		if err != nil {
			t.Fatal(err)
		}
		scratch := getSeqScratch()
		res := &Result{SampleSizes: make([]int, opts.Versions)}
		cs, err := collectComps(context.Background(), g, opts, scratch, nil, res, func(*seqComp) {})
		putSeqScratch(scratch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, sc := range cs {
			switch {
			case !sc.canAnnounce(floor):
				if sc.kt.voterClass != nil || sc.kt.rows != nil {
					t.Fatalf("seed %d: a component of %d voters below the floor %d has kernel tables", seed, len(sc.voters), floor)
				}
				skipped++
				continue
			case (sc.kt.rows != nil) != denseRows(g, sc.voters):
				t.Fatalf("seed %d: component of %d voters, dense %v, has rows %v", seed, len(sc.voters), denseRows(g, sc.voters), sc.kt.rows != nil)
			case sc.kt.rows != nil:
				if dense++; dense <= 4 {
					comps = append(comps, sc)
				}
			default:
				if sparse++; sparse <= 4 {
					comps = append(comps, sc)
				}
			}
			for _, h := range hubs {
				if slices.Contains(sc.members, int32(h)) {
					if sc.kt.rows != nil {
						t.Fatalf("seed %d: hub %d's component of %d voters keeps rows", seed, h, len(sc.voters))
					}
					hubComps++
				}
			}
		}
	}
	if skipped == 0 || dense == 0 || sparse == 0 || hubComps == 0 {
		t.Fatalf("%d components below the floor, %d dense, %d sparse, %d holding a hub; want all four", skipped, dense, sparse, hubComps)
	}

	xs := [2]ktScratch{{voterPos: make([]int32, g.N())}, {voterPos: make([]int32, g.N())}}
	set := bitset.New(g.N())
	for _, sc := range comps {
		members := make([]int, len(sc.members))
		for i, m := range sc.members {
			members[i] = int(m)
		}
		var built [2]*seqComp
		for m := range built {
			built[m] = newSeqComp(members, sc.version)
			built[m].voters = sc.voters
			built[m].buildKT(g, &xs[m], 2, m == 1)
		}
		for _, eps := range ktOracleEps() {
			for m, f := range built {
				f.finish(eps, floor, &xs[m])
				if e := built[0]; f.bStar != e.bStar || f.size != e.size ||
					!slices.Equal(f.tcounts, e.tcounts) || !slices.Equal(f.tbits, e.tbits) {
					t.Fatalf("ε=%v %d voters: the row kernel (bStar %d, size %d) diverges from the per-entry kernel (bStar %d, size %d)",
						eps, len(sc.voters), f.bStar, f.size, e.bStar, e.size)
				}
				var tset []int
				for i, u := range f.voters {
					if f.inT(i, f.bStar) {
						tset = append(tset, u)
					}
				}
				want := g.Density(bitset.FromIndices(g.N(), tset))
				if got := f.density(g, &xs[m], set, 2); got != want {
					t.Fatalf("ε=%v %d voters, rows %v: density %v != Graph.Density %v", eps, len(sc.voters), m == 1, got, want)
				}
				if c := set.Count(); c != 0 {
					t.Fatalf("ε=%v rows %v: %d mark bits left set", eps, m == 1, c)
				}
			}
		}
	}
}

// TestUpperFillMatchesFullRows pins the voter rows — filled above the
// diagonal, then mirrored — to rows built entry by entry from every
// voter's full adjacency, at Parallelism 1 and 2: on the replay's own
// dense components of hubInstance, and on a seeded family of dense
// components whose |V| sits at and around the 64-bit word boundaries,
// the largest with enough entries above the diagonal to split the fill.
// Each row has a zero diagonal bit and zero padding past |V|.
func TestUpperFillMatchesFullRows(t *testing.T) {
	g, _ := hubInstance()
	for _, par := range []int{1, 2} {
		dense := 0
		for seed := int64(1); seed <= 3; seed++ {
			opts, err := Options{Epsilon: 0.25, ExpectedSample: 200, Seed: seed, Versions: 2, MinSize: 20, Parallelism: par}.validated(g.N())
			if err != nil {
				t.Fatal(err)
			}
			scratch := getSeqScratch()
			res := &Result{SampleSizes: make([]int, opts.Versions)}
			comps, err := collectComps(context.Background(), g, opts, scratch, nil, res, func(*seqComp) {})
			putSeqScratch(scratch)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range comps {
				if sc.kt.rows != nil {
					checkFullRows(t, g, sc)
					dense++
				}
			}
		}
		if dense == 0 {
			t.Fatalf("Parallelism %d: hubInstance gave no component with rows", par)
		}
	}

	x := ktScratch{}
	for _, size := range []int{1, 63, 64, 65, 130, 300} {
		p := gen.PlantedNearClique(size+40, size, 0.1, 0.1, int64(size))
		voters := slices.Clone(p.D)
		slices.Sort(voters)
		if !denseRows(p.Graph, voters) {
			t.Fatalf("|V| = %d: the component is not dense", size)
		}
		if above := entriesAbove(p.Graph, voters); size == 300 && parts(above, 2) < 2 {
			t.Fatalf("|V| = %d: %d entries above the diagonal split no fill", size, above)
		}
		x.voterPos = make([]int32, p.Graph.N())
		for _, par := range []int{1, 2} {
			sc := newSeqComp(voters[:min(3, size)], 0)
			sc.voters = voters
			sc.buildKT(p.Graph, &x, par, true)
			checkFullRows(t, p.Graph, sc)
		}
	}
}

// checkFullRows fails unless sc's rows equal G[V] built entry by entry,
// with zero diagonal and zero padding bits.
func checkFullRows(t *testing.T, g *graph.Graph, sc *seqComp) {
	t.Helper()
	n, w := len(sc.voters), sc.kt.rowWords
	if w != (n+63)/64 || len(sc.kt.rows) != n*w {
		t.Fatalf("|V| = %d: %d rows words of %d each", n, len(sc.kt.rows), w)
	}
	for i, u := range sc.voters {
		want := make([]uint64, w)
		for _, v := range g.Neighbors(u) {
			if j, ok := slices.BinarySearch(sc.voters, int(v)); ok {
				want[j>>6] |= 1 << uint(j&63)
			}
		}
		row := sc.kt.rows[i*w : (i+1)*w]
		if !slices.Equal(row, want) {
			t.Fatalf("|V| = %d voter %d: row %x, full adjacency %x", n, i, row, want)
		}
		if row[i>>6]&(1<<uint(i&63)) != 0 {
			t.Fatalf("|V| = %d voter %d: diagonal bit set", n, i)
		}
		if pad := row[w-1] >> uint(n-64*(w-1)) << uint(n-64*(w-1)); n%64 != 0 && pad != 0 {
			t.Fatalf("|V| = %d voter %d: padding bits %x set", n, i, pad)
		}
	}
}
