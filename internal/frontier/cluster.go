package frontier

import (
	"math/bits"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// Scratch is the reusable per-traversal state of the cluster kernels:
// two frontier bitsets, the per-vertex seed-membership words, and the
// frozen previous-wave words the direction-optimized waves read from.
// A Scratch serves one traversal at a time (callers pool whole
// instances); Components leaves the words
// array all-zero again on return, so a Scratch is reusable without a
// O(n) reset.
type Scratch struct {
	n      int
	front  *bitset.Set
	next   *bitset.Set
	remain *bitset.Set
	words  []uint64
	prev   []uint64
	found  []int
}

// NewScratch returns a Scratch sized for n-vertex traversals; Ensure
// regrows it when a larger graph arrives.
func NewScratch(n int) *Scratch {
	sc := &Scratch{}
	sc.Ensure(n)
	return sc
}

// Ensure resizes the scratch for an n-vertex graph. Shrinking is a
// resize too: the bitset word ops require exactly matching lengths.
func (sc *Scratch) Ensure(n int) {
	if sc.n == n && sc.front != nil {
		return
	}
	sc.n = n
	sc.front = bitset.New(n)
	sc.next = bitset.New(n)
	sc.remain = bitset.New(n)
	sc.words = make([]uint64, n)
	sc.prev = make([]uint64, n)
}

// ClusterBFS floods 64-bit seed-membership words through the subgraph
// induced by sub: on return sc.words[v] has bit i set iff v is
// connected to seeds[i] within G[sub]. All seeds must lie in sub and
// len(seeds) ≤ 64; sc.words must be all-zero on entry (the documented
// Scratch invariant). onWave, if non-nil, observes every wave with the
// frontier population at its start and the arena entries it examined.
//
// Each wave computes words'[v] = words[v] | OR{ prev[u] : u ∈ front ∩
// Γ(v) } where prev is the frontier's words frozen at the wave start —
// the freeze is what makes push (scatter from the frontier) and pull
// (gather into every sub vertex) produce identical words regardless of
// intra-wave visit order, and therefore what lets the direction switch
// without perturbing the transcript. The next frontier is exactly the
// set of vertices whose word changed; the flood reaches its fixpoint
// after at most diameter(G[sub]) waves, when every vertex's word is
// the full seed set of its component.
func ClusterBFS(g *graph.Graph, sub *bitset.Set, seeds []int, sc *Scratch, onWave func(frontier int, examined int64)) {
	sc.Ensure(g.N())
	front, next := sc.front, sc.next
	front.Clear()
	next.Clear()
	for i, s := range seeds {
		sc.words[s] |= 1 << uint(i)
		front.Add(s)
	}
	// The pull side of a wave scans all of sub, so the switch compares
	// the push cost against the induced subgraph's own arena entries,
	// computed once per flood.
	subEdges, _ := FrontierEdges(g, sub)
	for {
		ef, pop := FrontierEdges(g, front)
		if pop == 0 {
			return
		}
		front.ForEach(func(v int) { sc.prev[v] = sc.words[v] })
		var examined int64
		if ef > subEdges/DenseFraction {
			examined = clusterPull(g, sub, front, next, sc)
		} else {
			examined = clusterPush(g, sub, front, next, sc)
		}
		if onWave != nil {
			onWave(pop, examined)
		}
		front, next = next, front
		next.Clear()
	}
}

// clusterPush scatters each frontier vertex's frozen word into its
// neighbors inside sub, marking every vertex whose word grew.
func clusterPush(g *graph.Graph, sub, front, next *bitset.Set, sc *Scratch) int64 {
	offsets, targets := g.Arena()
	var examined int64
	front.ForEach(func(v int) {
		w := sc.prev[v]
		row := targets[offsets[v]:offsets[v+1]]
		examined += int64(len(row))
		for _, t := range row {
			u := int(t)
			if sub.Contains(u) && sc.words[u]|w != sc.words[u] {
				sc.words[u] |= w
				next.Add(u)
			}
		}
	})
	return examined
}

// clusterPull gathers, for every vertex of sub, the frozen words of its
// frontier neighbors. No early exit is possible — the word union needs
// every frontier neighbor — which is why the switch threshold compares
// against the full induced arena cost.
func clusterPull(g *graph.Graph, sub, front, next *bitset.Set, sc *Scratch) int64 {
	offsets, targets := g.Arena()
	var examined int64
	sub.ForEach(func(u int) {
		acc := sc.words[u]
		row := targets[offsets[u]:offsets[u+1]]
		examined += int64(len(row))
		for _, t := range row {
			if front.Contains(int(t)) {
				acc |= sc.prev[int(t)]
			}
		}
		if acc != sc.words[u] {
			sc.words[u] = acc
			next.Add(u)
		}
	})
	return examined
}

// Components returns the connected components of G[sub] — each sorted
// ascending, ordered by smallest member, exactly graph.ComponentsOf's
// contract — discovering up to 64 components per flood: each batch
// seeds the 64 smallest undiscovered sub vertices and one ClusterBFS
// resolves them all.
//
// The ordering argument: the seeds of a batch are the smallest
// undiscovered vertices, so every component found in the batch contains
// its own minimum vertex as a seed, and that minimum is the component's
// lowest seed bit. Collecting by lowest bit therefore orders the batch
// by smallest member, and later batches only ever see larger vertices —
// the concatenation is globally ordered, bit-identical to the serial
// BFS in graph.ComponentsOf.
func Components(g *graph.Graph, sub *bitset.Set, sc *Scratch, onWave func(frontier int, examined int64)) [][]int {
	sc.Ensure(g.N())
	remain := sc.remain
	remain.CopyFrom(sub)
	var out [][]int
	var seeds [64]int
	for {
		ns := 0
		for v := remain.NextSet(0); v >= 0 && ns < 64; v = remain.NextSet(v + 1) {
			seeds[ns] = v
			ns++
		}
		if ns == 0 {
			return out
		}
		ClusterBFS(g, remain, seeds[:ns], sc, onWave)
		comps := make([][]int, ns)
		sc.found = sc.found[:0]
		remain.ForEach(func(v int) {
			w := sc.words[v]
			if w == 0 {
				return
			}
			li := bits.TrailingZeros64(w)
			comps[li] = append(comps[li], v)
			sc.words[v] = 0
			sc.found = append(sc.found, v)
		})
		for _, v := range sc.found {
			remain.Remove(v)
		}
		for _, c := range comps {
			if len(c) > 0 {
				out = append(out, c)
			}
		}
	}
}
