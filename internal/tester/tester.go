// Package tester implements a Goldreich–Goldwasser–Ron style ρ-clique
// property tester in the dense-graph model (the paper's reference [10]),
// plus the "approximate find" companion that extracts an ε-near clique
// once the tester accepts. It exists to reproduce the methodological claim
// of the paper: Algorithm DistNearClique is a distributed adaptation of
// this tester with better tolerance — (ε³, ε)-tolerant versus the tester's
// (ε⁶, ε) per Parnas–Ron–Rubinfeld [19]. Experiment E10 sweeps planted
// near-clique parameters across both thresholds.
package tester

import (
	"math"
	"math/bits"
	"math/rand"

	"nearclique/internal/graph"
)

// Oracle provides pair-query access to a graph and counts queries, the
// dense-graph-model cost measure.
type Oracle struct {
	g       *graph.Graph
	queries int
	seen    map[[2]int]bool
}

// NewOracle wraps g with a query counter. Repeated queries of the same
// pair are counted once (the standard convention).
func NewOracle(g *graph.Graph) *Oracle {
	return &Oracle{g: g, seen: make(map[[2]int]bool)}
}

// Adjacent answers one pair query.
func (o *Oracle) Adjacent(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if !o.seen[key] {
		o.seen[key] = true
		o.queries++
	}
	return o.g.HasEdge(u, v)
}

// Queries returns the number of distinct pair queries so far.
func (o *Oracle) Queries() int { return o.queries }

// N returns the graph size (known to dense-model testers).
func (o *Oracle) N() int { return o.g.N() }

// Options configures the ρ-clique tester.
type Options struct {
	// Rho is the clique-fraction parameter: test for a clique of size ρn.
	Rho float64
	// Epsilon is the distance parameter.
	Epsilon float64
	// Seed drives sampling.
	Seed int64
	// SampleU bounds the first sample (subsets of it are enumerated);
	// 0 means the default min(⌈4/ε·ln(8/ε)⌉, 14).
	SampleU int
	// SampleW bounds the second sample; 0 means ⌈16/ε²·ln(8/ε)⌉.
	SampleW int
}

// Verdict is the tester's output.
type Verdict struct {
	Accept bool
	// Witness is the subset U' ⊆ U that certified acceptance (nil on
	// reject).
	Witness []int
	// Queries is the number of pair queries spent.
	Queries int
}

func (o Options) samples(n int) (int, int) {
	u := o.SampleU
	if u == 0 {
		u = int(math.Ceil(4 / o.Epsilon * math.Log(8/o.Epsilon)))
		if u > 14 {
			u = 14 // keep 2^|U| enumeration feasible
		}
	}
	w := o.SampleW
	if w == 0 {
		w = int(math.Ceil(16 / (o.Epsilon * o.Epsilon) * math.Log(8/o.Epsilon)))
	}
	if u > n {
		u = n
	}
	if w > n {
		w = n
	}
	return u, w
}

// TestRhoClique runs the GGR-style two-sample ρ-clique tester:
//
//  1. Sample U (small) and W (larger) uniformly.
//  2. For every sufficiently large subset U' ⊆ U that induces a clique,
//     check whether the fraction of W adjacent to (almost) all of U' is at
//     least ρ − ε/2.
//  3. Accept iff some U' passes.
//
// If G has a ρn-clique the tester accepts with high constant probability
// (the clique's trace on U is such a U'); if no ρn-set is even an
// (ε/ρ²)-near clique it rejects w.h.p. Query complexity is
// |U|² + |U|·|W| = Õ(1/ε⁴) with the default samples (the paper's Õ(1/ε⁶)
// bound is the tightened analysis; the structure is identical).
func TestRhoClique(o *Oracle, opts Options) Verdict {
	n := o.N()
	if n == 0 {
		return Verdict{Accept: opts.Rho <= 0}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	uSize, wSize := opts.samples(n)
	u := sampleNodes(rng, n, uSize)
	w := sampleNodes(rng, n, wSize)

	// Adjacency of U internally and U×W, via the oracle.
	uAdj := make([]uint64, len(u)) // bitmask over u (|U| ≤ 14 < 64)
	for i := range u {
		for j := i + 1; j < len(u); j++ {
			if u[i] != u[j] && o.Adjacent(u[i], u[j]) {
				uAdj[i] |= 1 << uint(j)
				uAdj[j] |= 1 << uint(i)
			}
		}
	}
	wAdj := make([]uint64, len(w)) // per w-node, bitmask over u
	for wi, wn := range w {
		for ui, un := range u {
			// A node trivially extends any clique it belongs to, so it is
			// compatible with itself.
			if wn == un || o.Adjacent(wn, un) {
				wAdj[wi] |= 1 << uint(ui)
			}
		}
	}

	minU := int(math.Ceil((opts.Rho - opts.Epsilon/4) * float64(len(u))))
	if minU < 1 {
		minU = 1
	}
	wantW := (opts.Rho - opts.Epsilon/2) * float64(len(w))

	var bestWitness []int
	for mask := uint64(1); mask < 1<<uint(len(u)); mask++ {
		size := bits.OnesCount64(mask)
		if size < minU {
			continue
		}
		if !isCliqueMask(uAdj, mask) {
			continue
		}
		// Count W-nodes adjacent to every member of U'.
		count := 0
		for wi := range w {
			if wAdj[wi]&mask == mask {
				count++
			}
		}
		if float64(count) >= wantW {
			witness := make([]int, 0, size)
			for i := range u {
				if mask&(1<<uint(i)) != 0 {
					witness = append(witness, u[i])
				}
			}
			bestWitness = witness
			break
		}
	}
	return Verdict{Accept: bestWitness != nil, Witness: bestWitness, Queries: o.Queries()}
}

// isCliqueMask reports whether the masked subset is fully connected.
func isCliqueMask(adj []uint64, mask uint64) bool {
	m := mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		// Every other member must be a neighbor of i.
		if (mask&^(1<<uint(i)))&^adj[i] != 0 {
			return false
		}
	}
	return true
}

// ApproximateFind implements the GGR companion: given an accepting
// witness U', return every node adjacent to at least a (1−ε) fraction of
// U' — an O(n·|U'|)-query step that yields a large near-clique when the
// tester accepted (the paper's "approximate find" in O(n) time).
func ApproximateFind(o *Oracle, witness []int, eps float64) []int {
	if len(witness) == 0 {
		return nil
	}
	threshold := (1 - eps) * float64(len(witness))
	var out []int
	for v := 0; v < o.N(); v++ {
		cnt := 0
		for _, u := range witness {
			if v != u && o.Adjacent(v, u) {
				cnt++
			}
		}
		if float64(cnt) >= threshold-1e-9 {
			out = append(out, v)
		}
	}
	return out
}

// sampleNodes draws size distinct nodes uniformly (or all nodes if
// size ≥ n).
func sampleNodes(rng *rand.Rand, n, size int) []int {
	if size >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)[:size]
}
