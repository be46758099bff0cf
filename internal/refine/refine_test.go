package refine

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// refineNow runs one refinement with a background context, failing the
// test on (unexpected) errors.
func refineNow(t *testing.T, g *graph.Graph, label int64, members []int, spec Spec, runEps float64, seed int64, rank int) Refined {
	t.Helper()
	ref, err := New(g).Candidate(context.Background(), label, members, spec, runEps, seed, rank)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestParseSpecCanonicalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"near", "near"},
		{"near:0.25", "near:0.25"},
		{"near:0.2", "near:0.2"},
		{"quasi:0.6", "quasi:0.6"},
		{"quasi:0.60", "quasi:0.6"},          // equivalent spelling canonicalizes
		{"near,moves=512,pool=4096", "near"}, // explicit defaults drop out
		{"quasi:0.6,moves=128", "quasi:0.6,moves=128"},
		{"near:0.2,pool=64,moves=16", "near:0.2,moves=16,pool=64"}, // fixed order
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := spec.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Round trip: the canonical string parses back to the same spec.
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", spec.String(), err)
		}
		if again != spec {
			t.Errorf("round trip of %q: %+v != %+v", c.in, again, spec)
		}
	}

	for _, bad := range []string{
		"", "bogus", "quasi", "quasi:0", "quasi:1.5", "near:0.5", "near:-0.1",
		"near,moves=-1", "near,pool=x", "near,unknown=1", "near,moves", "near:NaN", "quasi:NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

// plantedWithHoles builds a strict 30-clique over a sparse background and
// returns the graph, the full planted set, and the planted set minus its
// last `holes` members (a typical engine output that missed a few nodes).
func plantedWithHoles(t *testing.T, holes int) (*graph.Graph, []int, []int) {
	t.Helper()
	inst := gen.SparsePlantedNearClique(300, 30, 0, 4, 11)
	base := append([]int(nil), inst.D[:len(inst.D)-holes]...)
	return inst.Graph, inst.D, base
}

func TestRefineRecoversPlantedCliqueHoles(t *testing.T) {
	g, planted, base := plantedWithHoles(t, 3)
	ref := refineNow(t, g, 7, base, Spec{}, 0.25, 1, 0)
	if ref.BaseSize != len(base) {
		t.Fatalf("BaseSize = %d, want %d", ref.BaseSize, len(base))
	}
	if !ref.Improved {
		t.Fatalf("expected improvement, got %+v", ref)
	}
	if ref.Density < ref.BaseDensity {
		t.Fatalf("density decreased: %v < %v", ref.Density, ref.BaseDensity)
	}
	// The three missing clique members are each adjacent to every base
	// member, so growth must recover the full planted set exactly.
	if !reflect.DeepEqual(ref.Members, planted) {
		t.Fatalf("refined members %v, want the planted set %v", ref.Members, planted)
	}
	if ref.Density != 1 {
		t.Fatalf("refined density %v, want 1 (strict clique)", ref.Density)
	}
	if ref.Moves < 3 {
		t.Fatalf("Moves = %d, want ≥ 3 (one add per hole)", ref.Moves)
	}
	// The seed vertex is a planted member (they dominate the core order).
	found := false
	for _, v := range planted {
		if v == ref.SeedVertex {
			found = true
		}
	}
	if !found {
		t.Fatalf("seed vertex %d not in the planted set", ref.SeedVertex)
	}
}

func TestRefineNeverDecreasesDensity(t *testing.T) {
	// Arbitrary (deliberately bad) base candidates over assorted graphs:
	// whatever the search does, the output density may never drop below
	// the base and the output must stay sorted and duplicate-free.
	graphs := map[string]*graph.Graph{
		"er":      gen.ErdosRenyi(120, 0.1, 3),
		"web":     gen.PreferentialAttachment(150, 4, 5),
		"planted": gen.PlantedNearClique(200, 50, 0.05, 0.03, 9).Graph,
	}
	specs := []Spec{
		{},             // near, inherit ε
		{Epsilon: 0.1}, // near, strict
		{Objective: ObjectiveQuasiClique, Gamma: 0.5},
		{Objective: ObjectiveQuasiClique, Gamma: 0.95},
		{MaxMoves: 4}, // tiny budget
		{PoolCap: 8},  // tiny pool
	}
	for name, g := range graphs {
		for _, members := range [][]int{
			{0},
			{0, 1, 2, 3, 4, 5, 6, 7},
			rangeInts(0, 40),
		} {
			base := g.DensityOf(members)
			for si, spec := range specs {
				ref := refineNow(t, g, 1, members, spec, 0.25, 42, si)
				if ref.Density < base {
					t.Fatalf("%s spec %d: density %v < base %v", name, si, ref.Density, base)
				}
				if got := g.DensityOf(ref.Members); got != ref.Density {
					t.Fatalf("%s spec %d: reported density %v but members have %v", name, si, ref.Density, got)
				}
				if !sort.IntsAreSorted(ref.Members) {
					t.Fatalf("%s spec %d: members not sorted: %v", name, si, ref.Members)
				}
				for i := 1; i < len(ref.Members); i++ {
					if ref.Members[i] == ref.Members[i-1] {
						t.Fatalf("%s spec %d: duplicate member %d", name, si, ref.Members[i])
					}
				}
				if ref.Improved && len(ref.Members) <= len(members) && ref.Density <= base {
					t.Fatalf("%s spec %d: Improved set without improvement: %+v", name, si, ref)
				}
			}
		}
	}
}

func TestRefineDeterministicIncludingPoolSubsample(t *testing.T) {
	// A hub adjacent to everything makes the grow pool exceed a tiny
	// PoolCap, forcing the RNG subsample path; two independent Refiners
	// must still agree draw for draw, and a different candidate rank or
	// seed keys a different (but internally stable) stream.
	g := gen.PlantedNearClique(400, 80, 0.02, 0.08, 13).Graph
	members := rangeInts(0, 25)
	spec := Spec{PoolCap: 32}
	a := refineNow(t, g, 5, members, spec, 0.25, 99, 0)
	b := refineNow(t, g, 5, members, spec, 0.25, 99, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different refinement:\n%+v\nvs\n%+v", a, b)
	}
	c := refineNow(t, g, 5, members, spec, 0.25, 100, 0)
	d := refineNow(t, g, 5, members, spec, 0.25, 100, 0)
	if !reflect.DeepEqual(c, d) {
		t.Fatalf("seed 100 not reproducible")
	}
}

func TestRefineQuasiObjectiveDensifiesBelowThreshold(t *testing.T) {
	// A base candidate well below γ must be peeled up to a feasible
	// (≥ γ) subset — the quasi objective's densify direction.
	inst := gen.PlantedNearClique(150, 40, 0.02, 0.02, 21)
	// Pollute the planted set with 20 background nodes.
	members := append(append([]int(nil), inst.D...), rangeMissing(inst.D, 150, 20)...)
	sort.Ints(members)
	g := inst.Graph
	base := g.DensityOf(members)
	if base > 0.8 {
		t.Fatalf("fixture too dense to exercise peeling: %v", base)
	}
	ref := refineNow(t, g, 3, members, Spec{Objective: ObjectiveQuasiClique, Gamma: 0.9}, 0.25, 1, 0)
	if ref.Density < 0.9-1e-9 {
		t.Fatalf("refined density %v below γ = 0.9", ref.Density)
	}
	if ref.Density < base {
		t.Fatalf("density decreased: %v < %v", ref.Density, base)
	}
	if len(ref.Members) >= len(members) {
		t.Fatalf("expected peeling to shrink the set: %d ≥ %d", len(ref.Members), len(members))
	}
	if len(ref.Members) < 30 {
		t.Fatalf("peeled too far: %d members left", len(ref.Members))
	}
}

func TestRefineEmptyAndSingleton(t *testing.T) {
	g := gen.ErdosRenyi(20, 0.2, 1)
	ref := refineNow(t, g, 0, nil, Spec{}, 0.25, 1, 0)
	if len(ref.Members) != 0 || ref.Moves != 0 || ref.SeedVertex != -1 || ref.Improved {
		t.Fatalf("empty candidate refined to %+v", ref)
	}
	one := refineNow(t, g, 0, []int{3}, Spec{}, 0.25, 1, 0)
	if one.Density != 1 || one.BaseDensity != 1 {
		t.Fatalf("singleton density %v/%v, want 1/1", one.Density, one.BaseDensity)
	}
	if one.SeedVertex != 3 {
		t.Fatalf("singleton seed vertex %d, want 3", one.SeedVertex)
	}
}

func TestRefineObservesCancellation(t *testing.T) {
	g, _, base := plantedWithHoles(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(g).Candidate(ctx, 7, base, Spec{}, 0.25, 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled refinement returned %v, want context.Canceled", err)
	}
}

func TestSpecHardCaps(t *testing.T) {
	// Client-supplied budgets are bounded: the post-pass runs inside
	// serving deadlines, so absurd budgets fail eager validation.
	for _, bad := range []Spec{
		{MaxMoves: HardMaxMoves + 1},
		{PoolCap: HardMaxPool + 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("spec %+v accepted, want a hard-cap error", bad)
		}
	}
	if err := (Spec{MaxMoves: HardMaxMoves, PoolCap: HardMaxPool}).Validate(); err != nil {
		t.Fatalf("at-cap spec rejected: %v", err)
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// rangeMissing returns the first count nodes of [0, n) not in exclude.
func rangeMissing(exclude []int, n, count int) []int {
	in := make(map[int]bool, len(exclude))
	for _, v := range exclude {
		in[v] = true
	}
	var out []int
	for v := 0; v < n && len(out) < count; v++ {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}
