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
// captures its kernel tables.
func kernelComp(g *graph.Graph, members []int, ver int, x *ktScratch) *seqComp {
	sc := newSeqComp(members, ver)
	voters := bitset.FromIndices(g.N(), members)
	for _, m := range members {
		for _, w := range g.Neighbors(m) {
			voters.Add(int(w))
		}
	}
	sc.voters = voters.Indices()
	sc.buildKT(g, x)
	return sc
}

// TestKTKernelMatchesGraphOracle pins the kernel against the paper's
// definitions evaluated straight from the graph: for every subset X_b,
// kcounts[b] = |K_{2ε²}(X_b)| and voter u's T bit = [u ∈ T_ε(X_b)], with
// T_ε(X_b) containing no non-voter.
func TestKTKernelMatchesGraphOracle(t *testing.T) {
	var x ktScratch
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
		sc := kernelComp(g, members, 0, &x)
		if len(sc.voters) < 100 {
			t.Fatalf("trial %d: only %d voters; the oracle wants hundreds", trial, len(sc.voters))
		}
		for _, eps := range ktOracleEps() {
			sc.evalKT(eps, &x)
			for b := int32(1); b < 1<<uint(k); b++ {
				xb := bitset.FromIndices(g.N(), decodeSubset(sc.members, b))
				if want := g.K(xb, 2*eps*eps).Count(); int(x.kcounts[b]) != want {
					t.Fatalf("trial %d k=%d ε=%v b=%b: kcounts %d, |K_2ε²(X)| %d", trial, k, eps, b, x.kcounts[b], want)
				}
				wantT := g.T(xb, eps)
				inT := 0
				for i, u := range sc.voters {
					if sc.inT(i, b) != wantT.Contains(u) {
						t.Fatalf("trial %d k=%d ε=%v b=%b voter %d: T bit %v, oracle %v", trial, k, eps, b, u, sc.inT(i, b), wantT.Contains(u))
					}
					if sc.inT(i, b) {
						inT++
					}
				}
				if inT != wantT.Count() || int(sc.tcounts[b]) != inT {
					t.Fatalf("trial %d k=%d ε=%v b=%b: tcounts %d, T bits %d, |T_ε(X)| %d", trial, k, eps, b, sc.tcounts[b], inT, wantT.Count())
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
	var fresh ktScratch
	probe := func(eps float64) bool {
		cache.evaluate(eps)
		for ci, sc := range cache.comps {
			members := make([]int, len(sc.members))
			for i, m := range sc.members {
				members[i] = int(m)
			}
			f := newSeqComp(members, sc.version)
			f.voters = sc.voters
			f.buildKT(g, &fresh)
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
