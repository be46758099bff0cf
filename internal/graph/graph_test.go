package graph

import (
	"math/rand"
	"testing"

	"nearclique/internal/bitset"
)

func triangle() *Graph {
	return FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
}

func path(n int) *Graph {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	return FromEdges(n, edges)
}

func complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func all(n int) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate
	b.AddEdge(2, 2) // self loop ignored
	b.AddEdge(2, 3)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N=%d", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge 0-1")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop present")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge")
	}
	if g.Degree(1) != 1 || g.Degree(3) != 1 {
		t.Fatal("bad degrees")
	}
}

func TestBuilderRemoveEdge(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.RemoveEdge(0, 1)
	b.RemoveEdge(0, 2) // absent: no-op
	g := b.Build()
	if g.M() != 1 || g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("remove failed: M=%d", g.M())
	}
}

func TestBuildIsImmutableSnapshot(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.M() != 1 {
		t.Fatal("later builder mutation leaked into earlier graph")
	}
	if g2.M() != 2 {
		t.Fatal("second build missing edge")
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(60, 0.2, seed)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			t.Fatalf("seed %d: degree sum %d ≠ 2M %d", seed, sum, 2*g.M())
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(40, 0.3, 42)
	g2 := FromEdges(g.N(), g.Edges())
	if g2.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", g2.M(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if g.HasEdge(u, v) != g2.HasEdge(u, v) {
				t.Fatalf("adjacency mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := complete(5)
	sub, idx := g.Subgraph([]int{4, 1, 3, 1})
	if sub.N() != 3 {
		t.Fatalf("sub N=%d, want 3 (dedup)", sub.N())
	}
	if sub.M() != 3 {
		t.Fatalf("sub M=%d, want 3", sub.M())
	}
	want := []int{1, 3, 4}
	for i, v := range idx {
		if v != want[i] {
			t.Fatalf("index map %v, want %v", idx, want)
		}
	}
}

func TestDensityDefinition1(t *testing.T) {
	// Definition 1 counts directed pairs: density = 2·E(D) / (|D|(|D|−1)).
	g := triangle()
	if d := g.Density(all(3)); d != 1 {
		t.Fatalf("triangle density %v, want 1", d)
	}
	// Path on 3 nodes: 2 edges of 3 pairs → 4/6.
	p := path(3)
	if d := p.Density(all(3)); d < 0.666 || d > 0.667 {
		t.Fatalf("path density %v, want 2/3", d)
	}
	// Singleton and empty sets are density 1 by convention.
	if d := g.Density(bitset.FromIndices(3, []int{0})); d != 1 {
		t.Fatalf("singleton density %v", d)
	}
	if d := g.Density(bitset.New(3)); d != 1 {
		t.Fatalf("empty density %v", d)
	}
}

func TestIsNearClique(t *testing.T) {
	p := path(3)
	// Path-3 has density 2/3: it is a 1/3-near clique but not a 0.3-near clique.
	if !p.IsNearClique(all(3), 1.0/3.0) {
		t.Fatal("path-3 should be a (1/3)-near clique")
	}
	if p.IsNearClique(all(3), 0.3) {
		t.Fatal("path-3 should not be a 0.3-near clique")
	}
	// A clique is a 0-near clique.
	if !complete(6).IsNearClique(all(6), 0) {
		t.Fatal("K6 should be 0-near clique")
	}
}

func TestIsClique(t *testing.T) {
	g := complete(4)
	if !g.IsClique(all(4)) {
		t.Fatal("K4 not recognized")
	}
	sub := bitset.FromIndices(4, []int{0, 1, 2})
	if !g.IsClique(sub) {
		t.Fatal("K4 subset not clique")
	}
	if path(4).IsClique(all(4)) {
		t.Fatal("path recognized as clique")
	}
}

func TestKOperator(t *testing.T) {
	// Star with center 0, leaves 1..4. X = {1,2}:
	// K_0(X) = nodes adjacent to all of X = {0} only.
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	x := bitset.FromIndices(5, []int{1, 2})
	k := g.K(x, 0)
	if got := k.Indices(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("K_0 = %v, want [0]", got)
	}
	// With ε = 0.5, being adjacent to 1 of 2 suffices: everyone adjacent to
	// 1 or 2 qualifies — that's {0} plus nobody else (leaves aren't
	// adjacent to other leaves).
	k = g.K(x, 0.5)
	if got := k.Indices(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("K_0.5 = %v, want [0]", got)
	}
	// ε = 1: threshold 0, every node qualifies.
	k = g.K(x, 1)
	if k.Count() != 5 {
		t.Fatalf("K_1 size %d, want 5", k.Count())
	}
}

func TestKOnCliqueExcludesNonNeighbors(t *testing.T) {
	// In K5 ∪ isolated node: K_0({0,1}) = {2,3,4} (members of X are not
	// their own neighbors, but each of 2,3,4 sees both).
	b := NewBuilder(6)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	k := g.K(bitset.FromIndices(6, []int{0, 1}), 0)
	got := k.Indices()
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("K_0({0,1}) = %v, want [2 3 4]", got)
	}
}

func TestTOperatorOnClique(t *testing.T) {
	// For a clique D and sample X ⊆ D with |X| ≥ 2: K_{2ε²}(X) ⊇ D \ X …
	// T_ε(X) must itself be a near-clique and contain most of D.
	g := complete(8)
	x := bitset.FromIndices(8, []int{0, 1, 2})
	tset := g.T(x, 0.1)
	// K_{0.02}({0,1,2}) = {3..7} (others adjacent to all of X; X-members
	// miss themselves: 2/3 < 0.98 threshold).
	// T = K_{0.1}(K) ∩ K: each of {3..7} is adjacent to the other 4 of 5
	// K-members → 4/5 = 0.8 < 0.9 → empty? No: threshold is (1−ε)|K| =
	// 0.9·5 = 4.5 > 4 → T is empty.
	if tset.Count() != 0 {
		t.Fatalf("T = %v, expected empty for this tight ε", tset.Indices())
	}
	// With ε = 0.2: threshold 0.8·5 = 4 ≤ 4 → all of K qualifies.
	tset = g.T(x, 0.2)
	if got := tset.Count(); got != 5 {
		t.Fatalf("T size %d, want 5", got)
	}
}

// Property (paper key observation, §4): if D is a clique then D ⊆ K(D)
// fails only via self-adjacency — but T_ε(X) of a clique sample is a clique
// for ε small. We verify the weaker documented invariant here: T ⊆ K.
func TestTSubsetOfK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(40, 0.4, int64(trial))
		x := bitset.New(40)
		for i := 0; i < 1+rng.Intn(6); i++ {
			x.Add(rng.Intn(40))
		}
		eps := 0.05 + rng.Float64()*0.4
		inner := g.K(x, 2*eps*eps)
		tset := g.T(x, eps)
		if !tset.IsSubsetOf(inner) {
			t.Fatalf("T ⊄ K_{2ε²}(X)")
		}
	}
}

// Property: K is monotone in ε (larger ε admits more nodes).
func TestKMonotoneInEps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(30, 0.3, int64(100+trial))
		x := bitset.New(30)
		for i := 0; i < 1+rng.Intn(5); i++ {
			x.Add(rng.Intn(30))
		}
		e1 := rng.Float64() * 0.5
		e2 := e1 + rng.Float64()*0.5
		k1 := g.K(x, e1)
		k2 := g.K(x, e2)
		if !k1.IsSubsetOf(k2) {
			t.Fatalf("K_%v ⊄ K_%v", e1, e2)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated node.
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components=%d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("comp0=%v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 6 {
		t.Fatalf("comp2=%v", comps[2])
	}
}

func TestComponentsOfInducedSet(t *testing.T) {
	// Path 0-1-2-3-4; restricting to {0,1,3,4} splits into two components.
	g := path(5)
	set := bitset.FromIndices(5, []int{0, 1, 3, 4})
	comps := g.ComponentsOf(set)
	if len(comps) != 2 {
		t.Fatalf("components=%d, want 2", len(comps))
	}
	if comps[0][0] != 0 || comps[0][1] != 1 || comps[1][0] != 3 || comps[1][1] != 4 {
		t.Fatalf("comps=%v", comps)
	}
}

func TestComponentsPartitionNodes(t *testing.T) {
	g := randomGraph(80, 0.03, 5)
	comps := g.Components()
	seen := bitset.New(80)
	total := 0
	for _, c := range comps {
		for _, v := range c {
			if seen.Contains(v) {
				t.Fatalf("node %d in two components", v)
			}
			seen.Add(v)
		}
		total += len(c)
	}
	if total != 80 {
		t.Fatalf("components cover %d of 80 nodes", total)
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(5)
	dist := g.BFSDistances(0, nil)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d]=%d, want %d", v, dist[v], v)
		}
	}
	// Restricted: cutting node 2 disconnects 3,4.
	set := bitset.FromIndices(5, []int{0, 1, 3, 4})
	dist = g.BFSDistances(0, set)
	if dist[1] != 1 || dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("restricted dist=%v", dist)
	}
}

func TestDiameter(t *testing.T) {
	if d := path(6).Diameter(nil); d != 5 {
		t.Fatalf("path diameter=%d, want 5", d)
	}
	if d := complete(6).Diameter(nil); d != 1 {
		t.Fatalf("K6 diameter=%d, want 1", d)
	}
	// Disconnected → -1.
	g := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if d := g.Diameter(nil); d != -1 {
		t.Fatalf("disconnected diameter=%d, want -1", d)
	}
}

func TestNeighborhoodOf(t *testing.T) {
	g := path(5)
	nb := g.NeighborhoodOf(bitset.FromIndices(5, []int{2}))
	if got := nb.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Γ({2})=%v", got)
	}
	// Γ(U) can include members of U (adjacent pair).
	nb = g.NeighborhoodOf(bitset.FromIndices(5, []int{1, 2}))
	if !nb.Contains(1) || !nb.Contains(2) {
		t.Fatal("Γ({1,2}) should include 1 and 2 themselves")
	}
}

func TestEdgesWithin(t *testing.T) {
	g := complete(5)
	if got := g.EdgesWithin(bitset.FromIndices(5, []int{0, 1, 2})); got != 3 {
		t.Fatalf("EdgesWithin=%d, want 3", got)
	}
	if got := g.EdgesWithin(bitset.New(5)); got != 0 {
		t.Fatalf("EdgesWithin(∅)=%d", got)
	}
}

func TestDegreeIn(t *testing.T) {
	g := complete(5)
	set := bitset.FromIndices(5, []int{1, 2, 3})
	if got := g.DegreeIn(0, set); got != 3 {
		t.Fatalf("DegreeIn=%d, want 3", got)
	}
	if got := g.DegreeIn(1, set); got != 2 {
		t.Fatalf("DegreeIn=%d, want 2 (self not counted)", got)
	}
}
