package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrArena is wrapped by every FromArena validation failure, so callers
// (notably the snapshot decoder in internal/graphio) can classify a
// structurally invalid arena without string matching.
var ErrArena = errors.New("graph: invalid CSR arena")

// FromArena wraps a prebuilt CSR arena as a Graph without copying: the
// returned graph aliases offsets and targets directly, which is how a
// mapped `.ncsr` snapshot becomes a ready-to-solve graph with no per-node
// allocation. Because the slices may come from an untrusted file, every
// structural invariant is checked in O(n + m):
//
//   - offsets starts at 0, is monotone non-decreasing, and ends at
//     len(targets);
//   - every node's targets are strictly ascending (sorted, no duplicate
//     edges), in range, and never the node itself (no self-loops);
//   - the edge relation is symmetric: (u→v) present ⇔ (v→u) present.
//
// A violation returns an error wrapping ErrArena; FromArena never panics
// on any input. The caller must not modify the slices afterwards.
func FromArena(offsets []int64, targets []int32) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("%w: offsets empty (need n+1 entries)", ErrArena)
	}
	n := len(offsets) - 1
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nodes exceed int32 node indices", ErrArena, n)
	}
	if len(targets) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d directed edges exceed int32 edge indices", ErrArena, len(targets))
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("%w: offsets[0] = %d, want 0", ErrArena, offsets[0])
	}
	if offsets[n] != int64(len(targets)) {
		return nil, fmt.Errorf("%w: offsets[%d] = %d, want len(targets) = %d",
			ErrArena, n, offsets[n], len(targets))
	}
	// One fused sequential pass checks the per-row invariants (monotone
	// offsets, strictly-ascending in-range targets, no self-loops) and
	// accumulates the symmetry fingerprint. This runs on every snapshot
	// open, so its constants matter: everything streams — no random
	// access, no O(m) scratch.
	//
	// Symmetry is checked as a multiset identity. Strict per-row ordering
	// means each ordered pair (u,v) appears at most once, so the relation
	// is symmetric iff every unordered pair {u,v} is covered by exactly
	// two directed edges — iff XOR-ing a 64-bit hash of the unordered
	// pair over all directed edges cancels to zero. Any asymmetry leaves
	// an odd number of uncancelled hashes and is detected unless distinct
	// pair hashes collide under XOR: probability 2⁻⁶⁴-scale for
	// corruption, the same integrity class as the snapshot checksum. An
	// adversarially constructed collision yields a garbage — but still
	// panic-free — graph: every consumer indexes the arena through the
	// bounds validated here, and the CSR Rev builder clamps defensively
	// (see csr.go), so no later operation can index out of range.
	if len(targets)%2 != 0 {
		return nil, fmt.Errorf("%w: odd directed-edge count %d cannot be symmetric", ErrArena, len(targets))
	}
	var acc uint64
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo || hi > int64(len(targets)) {
			return nil, fmt.Errorf("%w: offsets not monotone at node %d (%d > %d)", ErrArena, v, lo, hi)
		}
		row := targets[lo:hi]
		self := int32(v)
		prev := int32(-1)
		for _, t := range row {
			if t <= prev || int(t) >= n {
				return nil, fmt.Errorf("%w: node %d targets not strictly ascending in [0,%d)", ErrArena, v, n)
			}
			if t == self {
				return nil, fmt.Errorf("%w: node %d has a self-loop", ErrArena, v)
			}
			prev = t
			a, b := uint64(self), uint64(t)
			if a > b {
				a, b = b, a
			}
			acc ^= mix64(a<<32 | b)
		}
	}
	if acc != 0 {
		return nil, fmt.Errorf("%w: edge relation not symmetric (fingerprint %#016x)", ErrArena, acc)
	}
	return &Graph{offsets: offsets, targets: targets, m: len(targets) / 2}, nil
}

// mix64 is the splitmix64 finalizer: a bijective 64-bit mixer whose
// outputs behave as independent hashes for the XOR fingerprint above.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
