package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// randomInstance draws a random graph family member and random (valid)
// options for the fuzz-style invariant checks.
func randomInstance(rng *rand.Rand) (*graph.Graph, Options) {
	n := 20 + rng.Intn(60)
	var g *graph.Graph
	switch rng.Intn(4) {
	case 0:
		g = gen.ErdosRenyi(n, 0.1+rng.Float64()*0.5, rng.Int63())
	case 1:
		size := 5 + rng.Intn(n/2)
		g = gen.PlantedNearClique(n, size, rng.Float64()*0.1, rng.Float64()*0.1, rng.Int63()).Graph
	case 2:
		g = gen.Path(n)
	default:
		g, _ = gen.RandomGeometric(n, 0.1+rng.Float64()*0.3, rng.Int63())
	}
	opts := Options{
		Epsilon:        0.05 + rng.Float64()*0.4,
		ExpectedSample: 2 + rng.Float64()*5,
		Seed:           rng.Int63(),
		Versions:       1 + rng.Intn(3),
	}
	return g, opts
}

// TestPropertyInvariants fuzzes the full pipeline over random graphs and
// options and checks every structural invariant we know:
//
//  1. distributed ≡ sequential
//  2. every candidate equals the oracle T_ε(X) (Eq. 2)
//  3. candidates are pairwise disjoint, sorted, with consistent labels
//  4. Lemma 5.3: each size-t candidate is an (nε/t)-near clique
//  5. SubsetX ⊆ the version's sample of candidates' components
func TestPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260610))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g, opts := randomInstance(rng)
		dist, errD := Find(g, opts)
		seq, errS := FindSequential(g, opts)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: error mismatch %v vs %v", trial, errD, errS)
		}
		if errD != nil {
			continue // component cap: legitimate abort, equivalently detected
		}
		equalResults(t, dist, seq, "fuzz")

		seen := bitset.New(g.N())
		for _, c := range dist.Candidates {
			// (2) Oracle agreement.
			x := bitset.FromIndices(g.N(), c.SubsetX)
			want := g.T(x, opts.Epsilon).Indices()
			if !equalInts(c.Members, want) {
				t.Fatalf("trial %d: members %v ≠ oracle T %v (X=%v, ε=%v)",
					trial, c.Members, want, c.SubsetX, opts.Epsilon)
			}
			// (3) Disjoint, sorted, labeled.
			for i, m := range c.Members {
				if seen.Contains(m) {
					t.Fatalf("trial %d: node %d in two candidates", trial, m)
				}
				seen.Add(m)
				if dist.Label(m) != c.Label {
					t.Fatalf("trial %d: label mismatch at node %d", trial, m)
				}
				if i > 0 && c.Members[i-1] >= m {
					t.Fatalf("trial %d: members unsorted: %v", trial, c.Members)
				}
			}
			// (4) Lemma 5.3.
			if tsz := len(c.Members); tsz > 1 {
				bound := float64(g.N()) * opts.Epsilon / float64(tsz)
				if !g.IsNearClique(bitset.FromIndices(g.N(), c.Members), bound) {
					t.Fatalf("trial %d: Lemma 5.3 violated: t=%d density=%v bound=1-%v",
						trial, tsz, c.Density, bound)
				}
			}
			// (5) Non-empty generating subset.
			if len(c.SubsetX) == 0 {
				t.Fatalf("trial %d: empty SubsetX", trial)
			}
		}
		// Labels not covered by candidates must be ⊥.
		for v := 0; v < g.N(); v++ {
			if l := dist.Label(v); l != NoLabel && !seen.Contains(v) {
				t.Fatalf("trial %d: node %d labeled %d but in no candidate", trial, v, l)
			}
		}
	}
}

// TestPropertyLabelReadsCommittedCandidates checks the output registers
// that Result.Label reads from the committed candidates, over random
// instances, on the replay and on the sharded and async simulators: the
// candidates are disjoint, Label(v) is the label of the one candidate
// whose Members contain v (⊥ for a node in none), and it equals node v's
// label register as the simulated protocol left it.
func TestPropertyLabelReadsCommittedCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	labeled := 0
	for trial := 0; trial < 30; trial++ {
		g, opts := randomInstance(rng)
		async := opts
		async.Async, async.AsyncMaxDelay = true, 4
		sharded, sd, errS := find(context.Background(), g, opts)
		asyncRes, ad, errA := find(context.Background(), g, async)
		seq, errQ := FindSequential(g, opts)
		if errS != nil || errA != nil || errQ != nil {
			continue // component cap: every engine aborts alike (TestPropertyInvariants)
		}
		for _, e := range []struct {
			name string
			res  *Result
			d    *driver // the registers: the replay's are the sharded run's
		}{{"replay", seq, sd}, {"sharded", sharded, sd}, {"async", asyncRes, ad}} {
			owner := make([]int64, g.N())
			for v := range owner {
				owner[v] = NoLabel
			}
			for _, c := range e.res.Candidates {
				for _, v := range c.Members {
					if owner[v] != NoLabel {
						t.Fatalf("trial %d %s: node %d in candidates %d and %d", trial, e.name, v, owner[v], c.Label)
					}
					owner[v] = c.Label
					labeled++
				}
			}
			for v, want := range owner {
				if got := e.res.Label(v); got != want {
					t.Fatalf("trial %d %s: Label(%d) = %d, its candidate's is %d", trial, e.name, v, got, want)
				}
				if reg := e.d.nodes[v].label; reg != want {
					t.Fatalf("trial %d %s: node %d's register holds %d, Label reads %d", trial, e.name, v, reg, want)
				}
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no trial committed a candidate; the check would be vacuous")
	}
}

// TestPropertySampleMatchesCoins: the sample drawn by the replay's coin
// pass must match an independent replay of the two-coin process, drawn
// from each node's NewNodeRand stream as the simulated nodes draw it.
// Every fifth trial runs 70 versions, which take two coin passes.
func TestPropertySampleMatchesCoins(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	twoPasses := 0
	for trial := 0; trial < 20; trial++ {
		g, opts := randomInstance(rng)
		if trial%5 == 0 {
			opts.Versions = 70
		}
		res, err := FindSequential(g, opts)
		if err != nil {
			continue
		}
		if opts.Versions > congest.MaxFusedVersions {
			twoPasses++
		}
		vo, _ := opts.validated(g.N())
		p1 := vo.P / 2
		p2 := 0.0
		if p1 < 1 {
			p2 = (vo.P - p1) / (1 - p1)
		}
		want := make([]int, vo.Versions)
		for v := 0; v < g.N(); v++ {
			r := congest.NewNodeRand(vo.Seed, int64(v))
			for ver := range want {
				if f1, f2 := r.Float64(), r.Float64(); f1 < p1 || f2 < p2 {
					want[ver]++
				}
			}
		}
		if !slices.Equal(res.SampleSizes, want) {
			t.Fatalf("trial %d: sample sizes %v, the NewNodeRand coins give %v", trial, res.SampleSizes, want)
		}
		// E|S| = p·n per version; verify at least the gross scale: the
		// total over versions should rarely exceed 5× the expectation.
		expect := opts.ExpectedSample
		if opts.P > 0 {
			expect = opts.P * float64(g.N())
		}
		for v, size := range res.SampleSizes {
			if float64(size) > 5*expect+10 {
				t.Fatalf("trial %d version %d: |S|=%d vastly exceeds E=%v",
					trial, v, size, expect)
			}
		}
	}
	if twoPasses == 0 {
		t.Fatal("no trial ran more versions than one coin pass fills")
	}
}
