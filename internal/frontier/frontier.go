// Package frontier implements direction-optimizing traversal kernels
// over the shared CSR arena: a ClusterBFS-style flood that carries a
// 64-bit seed-membership word per vertex so one pass over the arena
// serves 64 seeds at once, switching each wave between push and pull by
// Ligra's rule, and a batched one-hop Neighborhoods fetch. The
// centralized replay uses it to batch the per-version component
// discovery of DistNearClique's exploration stage, and the refiner to
// prefetch its grow pools.
//
// Determinism: every kernel's output is a per-vertex word accumulated
// with OR, or a copy of arena rows — commutative, associative,
// idempotent — so the result is independent of visit order and of the
// push/pull direction chosen for a wave. Direction switching changes how
// many arena entries are examined, never which bits end up set; the
// property suites pin this on graphs dense and sparse enough to take
// both directions. The package draws no randomness and reads no clocks.
package frontier

import (
	"math/bits"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// DenseFraction is the Ligra threshold divisor: a kernel switches from
// push (iterate the frontier, scan its adjacency rows) to pull (iterate
// the candidate vertices, scan theirs) when the frontier's outgoing
// arena entries |Ef| exceed a 1/DenseFraction fraction of the entries a
// pull pass would scan. 20 is Ligra's published constant.
const DenseFraction = 20

// FrontierEdges returns |Ef| = Σ_{v∈front} deg(v) — the outgoing arena
// entries a push wave would examine — together with the frontier
// population. One word-guided scan computes both: words with no set
// bits cost a single load.
func FrontierEdges(g *graph.Graph, front *bitset.Set) (edges int64, pop int) {
	offsets, _ := g.Arena()
	front.ForEachWord(func(wi int, w uint64) {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			v := base + bits.TrailingZeros64(w)
			edges += offsets[v+1] - offsets[v]
			pop++
		}
	})
	return edges, pop
}
