package core

import (
	"errors"
	"fmt"
	"testing"

	"nearclique/internal/bitset"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

func defaultOpts(seed int64) Options {
	return Options{Epsilon: 0.3, ExpectedSample: 6, Seed: seed}
}

// equalResults compares everything except Metrics.
func equalResults(t *testing.T, a, b *Result, ctx string) {
	t.Helper()
	// Only a member of some candidate can carry a label.
	for _, r := range []*Result{a, b} {
		for _, c := range r.Candidates {
			for _, v := range c.Members {
				if la, lb := a.Label(v), b.Label(v); la != lb {
					t.Fatalf("%s: Label(%d) = %d vs %d", ctx, v, la, lb)
				}
			}
		}
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("%s: candidate counts %d vs %d", ctx, len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Label != cb.Label || ca.Version != cb.Version {
			t.Fatalf("%s: candidate %d identity (%d,%d) vs (%d,%d)",
				ctx, i, ca.Label, ca.Version, cb.Label, cb.Version)
		}
		if !equalInts(ca.Members, cb.Members) {
			t.Fatalf("%s: candidate %d members %v vs %v", ctx, i, ca.Members, cb.Members)
		}
		if !equalInts(ca.SubsetX, cb.SubsetX) {
			t.Fatalf("%s: candidate %d subset %v vs %v", ctx, i, ca.SubsetX, cb.SubsetX)
		}
	}
	if len(a.SampleSizes) != len(b.SampleSizes) {
		t.Fatalf("%s: sample size counts", ctx)
	}
	for i := range a.SampleSizes {
		if a.SampleSizes[i] != b.SampleSizes[i] {
			t.Fatalf("%s: sample size[%d] %d vs %d", ctx, i, a.SampleSizes[i], b.SampleSizes[i])
		}
	}
	if a.MaxComponent != b.MaxComponent {
		t.Fatalf("%s: max component %d vs %d", ctx, a.MaxComponent, b.MaxComponent)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDistributedEqualsSequential is the central equivalence check: the
// CONGEST protocol and the centralized reference must produce identical
// outputs on identical seeds, across graph families.
func TestDistributedEqualsSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-sparse", gen.ErdosRenyi(60, 0.05, 1)},
		{"er-medium", gen.ErdosRenyi(60, 0.2, 2)},
		{"er-dense", gen.ErdosRenyi(40, 0.5, 3)},
		{"planted", gen.PlantedNearClique(80, 24, 0.02, 0.05, 4).Graph},
		{"planted-dense-bg", gen.PlantedNearClique(60, 20, 0.05, 0.15, 5).Graph},
		{"path", gen.Path(30)},
		{"cycle", gen.Cycle(25)},
		{"star", gen.Star(30)},
		{"complete", gen.Complete(25)},
		{"empty", gen.Empty(20)},
		{"shingles", gen.ShinglesCounterexample(64, 0.5).Graph},
		{"geometric", mustGraph(gen.RandomGeometric(50, 0.3, 6))},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			opts := defaultOpts(seed)
			dist, errD := Find(tc.g, opts)
			seq, errS := FindSequential(tc.g, opts)
			if (errD == nil) != (errS == nil) {
				t.Fatalf("%s seed %d: error mismatch %v vs %v", tc.name, seed, errD, errS)
			}
			if errD != nil {
				if !errors.Is(errD, ErrComponentTooLarge) {
					t.Fatalf("%s seed %d: unexpected error %v", tc.name, seed, errD)
				}
				continue
			}
			equalResults(t, dist, seq, fmt.Sprintf("%s seed %d", tc.name, seed))
		}
	}
}

func mustGraph(g *graph.Graph, _ [][2]float64) *graph.Graph { return g }

func TestDistributedEqualsSequentialBoosted(t *testing.T) {
	g := gen.PlantedNearClique(70, 21, 0.02, 0.06, 7).Graph
	for seed := int64(0); seed < 3; seed++ {
		opts := defaultOpts(seed)
		opts.Versions = 3
		dist, errD := Find(g, opts)
		seq, errS := FindSequential(g, opts)
		if errD != nil || errS != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, errD, errS)
		}
		equalResults(t, dist, seq, fmt.Sprintf("boosted seed %d", seed))
	}
}

// TestCandidatesMatchOracleT: each committed candidate must be exactly
// T_ε(X) per the graph oracle (Eq. 2), computed on the whole graph. This
// pins the distributed computation to the paper's definitions.
func TestCandidatesMatchOracleT(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.PlantedNearClique(70, 20, 0.03, 0.08, seed+100).Graph
		opts := defaultOpts(seed)
		res, err := Find(g, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range res.Candidates {
			x := bitset.FromIndices(g.N(), c.SubsetX)
			want := g.T(x, opts.Epsilon).Indices()
			if !equalInts(c.Members, want) {
				t.Fatalf("seed %d: candidate %d members %v ≠ oracle T %v",
					seed, c.Label, c.Members, want)
			}
		}
	}
}

// TestLemma53Invariant: every candidate T_ε(X) of size t is an (nε/t)-near
// clique (Lemma 5.3).
func TestLemma53Invariant(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.PlantedNearClique(80, 24, 0.02, 0.05, seed+200).Graph
		opts := defaultOpts(seed)
		res, err := Find(g, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range res.Candidates {
			tsz := len(c.Members)
			if tsz <= 1 {
				continue
			}
			bound := float64(g.N()) * opts.Epsilon / float64(tsz)
			set := bitset.FromIndices(g.N(), c.Members)
			if !g.IsNearClique(set, bound) {
				t.Fatalf("seed %d: candidate of size %d has density %v < 1-%v",
					seed, tsz, g.Density(set), bound)
			}
		}
	}
}

func TestFindsPlantedClique(t *testing.T) {
	// With a planted strict clique of 30% of the nodes and a few seeds,
	// the algorithm should succeed for at least one seed (Theorem 5.7
	// promises constant success probability; we demand 1-of-8).
	p := gen.PlantedClique(100, 30, 0.03, 42)
	succeeded := false
	for seed := int64(0); seed < 8 && !succeeded; seed++ {
		opts := Options{Epsilon: 0.2, ExpectedSample: 7, Seed: seed}
		res, err := Find(p.Graph, opts)
		if err != nil {
			continue
		}
		best := res.Best()
		if best == nil {
			continue
		}
		// Success: a large, dense output.
		if len(best.Members) >= 20 && best.Density > 0.85 {
			succeeded = true
		}
	}
	if !succeeded {
		t.Fatal("no seed recovered the planted clique")
	}
}

func TestLabelsConsistentWithCandidates(t *testing.T) {
	g := gen.PlantedNearClique(60, 18, 0.02, 0.08, 11).Graph
	res, err := Find(g, defaultOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	fromLabels := map[int64][]int{}
	for v := 0; v < g.N(); v++ {
		if l := res.Label(v); l != NoLabel {
			fromLabels[l] = append(fromLabels[l], v)
		}
	}
	if len(fromLabels) != len(res.Candidates) {
		t.Fatalf("%d labels vs %d candidates", len(fromLabels), len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if !equalInts(fromLabels[c.Label], c.Members) {
			t.Fatalf("candidate %d members mismatch labels", c.Label)
		}
	}
}

func TestCandidatesDisjoint(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.ErdosRenyi(50, 0.3, seed)
		opts := defaultOpts(seed)
		opts.Versions = 2
		res, err := Find(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, c := range res.Candidates {
			for _, m := range c.Members {
				if seen[m] {
					t.Fatalf("seed %d: node %d in two candidates", seed, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.PlantedNearClique(60, 18, 0.05, 0.05, 9).Graph
	a, err := Find(g, defaultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Find(g, defaultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, a, b, "same seed")
	if a.Metrics.Rounds != b.Metrics.Rounds || a.Metrics.Frames != b.Metrics.Frames {
		t.Fatalf("metrics differ across identical runs: %d/%d vs %d/%d",
			a.Metrics.Rounds, a.Metrics.Frames, b.Metrics.Rounds, b.Metrics.Frames)
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	g := gen.PlantedNearClique(60, 18, 0.05, 0.05, 13).Graph
	opts := defaultOpts(5)
	opts.Parallelism = 1
	a, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	b, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, a, b, "parallelism")
}

func TestMessageBudgetRespected(t *testing.T) {
	g := gen.PlantedNearClique(80, 24, 0.05, 0.05, 15).Graph
	res, err := Find(g, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*bitsFor(g.N()+2) + 16 // congest.DefaultFrameBits(n)
	if res.Metrics.MaxFrameBits > budget {
		t.Fatalf("max frame %d bits exceeds budget %d", res.Metrics.MaxFrameBits, budget)
	}
	if res.Metrics.MaxFrameBits == 0 {
		t.Fatal("no frames recorded")
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := gen.PlantedClique(60, 20, 0.05, 21).Graph
	opts := defaultOpts(2)
	opts.MaxRounds = 3
	res, err := Find(g, opts)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	for v := 0; v < g.N(); v++ {
		if l := res.Label(v); l != NoLabel {
			t.Fatalf("node %d has label %d after abort", v, l)
		}
	}
	if res.Metrics.Rounds != 3 {
		t.Fatalf("rounds=%d, want 3", res.Metrics.Rounds)
	}
}

func TestComponentCapAborts(t *testing.T) {
	g := gen.Complete(30)
	opts := Options{Epsilon: 0.3, P: 1, Seed: 1, MaxComponentSize: 8}
	_, err := Find(g, opts)
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("err = %v, want ErrComponentTooLarge", err)
	}
	_, err = FindSequential(g, opts)
	if !errors.Is(err, ErrComponentTooLarge) {
		t.Fatalf("sequential err = %v, want ErrComponentTooLarge", err)
	}
}

func TestMinSizeFilters(t *testing.T) {
	// With MinSize above n every candidate is filtered.
	g := gen.PlantedClique(50, 15, 0.05, 33).Graph
	opts := defaultOpts(3)
	opts.MinSize = 100
	res, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("MinSize=100 still produced %d candidates", len(res.Candidates))
	}
	for v := 0; v < g.N(); v++ {
		if res.Label(v) != NoLabel {
			t.Fatal("labels assigned despite MinSize filter")
		}
	}
}

func TestEdgeCaseGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty-0", gen.Empty(0)},
		{"empty-1", gen.Empty(1)},
		{"single-edge", graph.FromEdges(2, [][2]int{{0, 1}})},
		{"two-components", graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})},
	}
	for _, tc := range cases {
		opts := Options{Epsilon: 0.3, P: 0.8, Seed: 4}
		dist, errD := Find(tc.g, opts)
		seq, errS := FindSequential(tc.g, opts)
		if errD != nil || errS != nil {
			t.Fatalf("%s: errors %v / %v", tc.name, errD, errS)
		}
		equalResults(t, dist, seq, tc.name)
	}
}

func TestOptionValidation(t *testing.T) {
	g := gen.Path(5)
	bad := []Options{
		{Epsilon: 0, P: 0.5},
		{Epsilon: 0.6, P: 0.5},
		{Epsilon: -0.1, P: 0.5},
		{Epsilon: 0.3, P: 1.5},
		{Epsilon: 0.3}, // neither P nor ExpectedSample
		{Epsilon: 0.3, P: 0.5, MaxComponentSize: 50},
	}
	for i, o := range bad {
		if _, err := Find(g, o); err == nil {
			t.Fatalf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestExpectedSampleSetsP(t *testing.T) {
	g := gen.ErdosRenyi(100, 0.05, 9)
	opts := Options{Epsilon: 0.3, ExpectedSample: 5, Seed: 2}
	res, err := Find(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// E|S| = 5; a sample of more than 30 would be a broken coin.
	if res.SampleSizes[0] > 30 {
		t.Fatalf("sample size %d implausible for s=5", res.SampleSizes[0])
	}
}

func TestBoostingImprovesSuccess(t *testing.T) {
	// At a deliberately small sample size the per-run success probability
	// is modest; λ=6 versions must succeed at least as often across seeds.
	p := gen.PlantedClique(90, 36, 0.02, 55)
	success := func(versions int) int {
		wins := 0
		for seed := int64(0); seed < 6; seed++ {
			opts := Options{Epsilon: 0.25, ExpectedSample: 5, Seed: seed, Versions: versions}
			res, err := FindSequential(p.Graph, opts)
			if err != nil {
				continue
			}
			if b := res.Best(); b != nil && len(b.Members) >= 18 {
				wins++
			}
		}
		return wins
	}
	w1, w6 := success(1), success(6)
	if w6 < w1 {
		t.Fatalf("boosting reduced success: λ=1 → %d wins, λ=6 → %d wins", w1, w6)
	}
	if w6 == 0 {
		t.Fatal("boosted runs never succeeded")
	}
}

func TestSubsetXContainedInSample(t *testing.T) {
	g := gen.PlantedNearClique(70, 21, 0.02, 0.06, 77).Graph
	res, err := Find(g, defaultOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if len(c.SubsetX) == 0 {
			t.Fatal("committed candidate with empty subset X")
		}
	}
}

func TestRoundsScaleWithSampleSize(t *testing.T) {
	// Lemma 5.1: rounds = O(2^|S|). Compare a tiny sample against a larger
	// one on the same graph; rounds must grow substantially.
	g := gen.PlantedClique(100, 40, 0.02, 88).Graph
	small, err := Find(g, Options{Epsilon: 0.3, ExpectedSample: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Find(g, Options{Epsilon: 0.3, ExpectedSample: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if large.MaxComponent > small.MaxComponent && large.Metrics.Rounds <= small.Metrics.Rounds {
		t.Fatalf("rounds did not grow with component size: %d (k=%d) vs %d (k=%d)",
			small.Metrics.Rounds, small.MaxComponent, large.Metrics.Rounds, large.MaxComponent)
	}
}
