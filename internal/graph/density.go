package graph

import "nearclique/internal/bitset"

// EdgesWithin returns the number of undirected edges inside the node set.
func (g *Graph) EdgesWithin(set *bitset.Set) int {
	total := 0
	set.ForEach(func(v int) {
		total += g.DegreeIn(v, set)
	})
	return total / 2
}

// Density returns the paper's Definition 1 density of the node set:
//
//	|{(u,v) directed : u,v ∈ set, {u,v} ∈ E}| / (|set|·(|set|−1))
//
// i.e. 2·EdgesWithin / (k(k−1)). Sets of size ≤ 1 have density 1 by
// convention (a clique trivially).
func (g *Graph) Density(set *bitset.Set) float64 {
	k := set.Count()
	if k <= 1 {
		return 1
	}
	return float64(2*g.EdgesWithin(set)) / float64(k*(k-1))
}

// DensityOf is Density for a node slice.
func (g *Graph) DensityOf(nodes []int) float64 {
	return g.Density(bitset.FromIndices(g.N(), nodes))
}

// IsNearClique reports whether the set is an ε-near clique per Definition 1:
// at least (1−ε)·k(k−1) of the directed pairs inside the set are edges.
func (g *Graph) IsNearClique(set *bitset.Set, eps float64) bool {
	k := set.Count()
	if k <= 1 {
		return true
	}
	// A float comparison, 2·edges ≥ (1−ε)·k(k−1), with a 1e-9 slack so
	// that a set exactly on the boundary is not rejected when (1−ε)·k(k−1)
	// rounds just above the integer it equals.
	pairs := float64(k * (k - 1))
	return float64(2*g.EdgesWithin(set)) >= (1-eps)*pairs-1e-9
}

// IsClique reports whether the set induces a complete subgraph.
func (g *Graph) IsClique(set *bitset.Set) bool {
	k := set.Count()
	return g.EdgesWithin(set) == k*(k-1)/2
}

// K returns K_ε(X) per Eq. (1): the set of all nodes v ∈ V with
// |Γ(v) ∩ X| ≥ (1−ε)·|X|. Note that for non-empty X a node is never its own
// neighbor, so v ∈ X does not automatically lie in K_ε(X).
func (g *Graph) K(x *bitset.Set, eps float64) *bitset.Set {
	out := bitset.New(g.N())
	sz := x.Count()
	threshold := (1 - eps) * float64(sz)
	for v := 0; v < g.N(); v++ {
		if float64(g.DegreeIn(v, x)) >= threshold-1e-9 {
			out.Add(v)
		}
	}
	return out
}

// T returns T_ε(X) per Eq. (2): K_ε(K_{2ε²}(X)) ∩ K_{2ε²}(X).
func (g *Graph) T(x *bitset.Set, eps float64) *bitset.Set {
	inner := g.K(x, 2*eps*eps)
	outer := g.K(inner, eps)
	outer.Intersect(inner)
	return outer
}

// KRestricted returns K_ε(X) ∩ allowed, computing membership only for nodes
// in allowed. This mirrors the distributed protocol, where only nodes of
// Si ∪ Γ(Si) can report membership.
func (g *Graph) KRestricted(x *bitset.Set, eps float64, allowed *bitset.Set) *bitset.Set {
	out := bitset.New(g.N())
	threshold := (1 - eps) * float64(x.Count())
	allowed.ForEach(func(v int) {
		if float64(g.DegreeIn(v, x)) >= threshold-1e-9 {
			out.Add(v)
		}
	})
	return out
}
