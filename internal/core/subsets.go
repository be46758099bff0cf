package core

import "math/bits"

// This file holds the arithmetic shared verbatim by the distributed node
// logic and the sequential reference implementation, so that the two are
// provably doing the same computation: subset indexing, the K/T membership
// thresholds of Eqs. (1)–(2), the argmax rule of the decision stage, and
// the candidate comparison used for voting.

// Subsets of a component Si with sorted member list m[0..k-1] are indexed
// by bitmask b ∈ [1, 2^k): X_b = { m[i] : bit i of b set }. Index 0 (the
// empty set) is excluded; see DESIGN.md §2.

// kMemberCounts computes, for every subset index b ∈ [0, 2^k), the number
// of members of X_b adjacent to a node, given adj[i] = whether the node is
// adjacent to member i. Runs in O(2^k) via the standard lowest-bit DP.
func kMemberCounts(k int, adj func(i int) bool) []uint8 {
	cnt := make([]uint8, 1<<uint(k))
	for b := 1; b < len(cnt); b++ {
		low := b & (-b)
		i := bits.TrailingZeros(uint(b))
		cnt[b] = cnt[b^low]
		if adj(i) {
			cnt[b]++
		}
	}
	return cnt
}

// meetsK reports membership in K_{2ε²}(X): |Γ(v) ∩ X| ≥ (1−2ε²)·|X|.
func meetsK(cnt, xSize int, eps float64) bool {
	return float64(cnt) >= (1-2*eps*eps)*float64(xSize)-1e-9
}

// meetsOuterK reports membership in K_ε(Y): |Γ(v) ∩ Y| ≥ (1−ε)·|Y|.
func meetsOuterK(cnt, ySize int, eps float64) bool {
	return float64(cnt) >= (1-eps)*float64(ySize)-1e-9
}

// argmaxSubset returns the subset index maximizing sizes[b] over b ≥ 1,
// breaking ties toward the smallest index. sizes[0] is ignored. Returns 0
// if all sizes are zero (no candidate).
func argmaxSubset(sizes []int32) int32 {
	best, bestIdx := int32(0), int32(0)
	for b := 1; b < len(sizes); b++ {
		if sizes[b] > best {
			best = sizes[b]
			bestIdx = int32(b)
		}
	}
	return bestIdx
}

// candKey identifies a decision-stage candidate across boosting versions.
type candKey struct {
	rootIdx int32
	version int32
}

// candInfo is what a participant knows about an announced candidate.
type candInfo struct {
	rootID int64
	size   int32
}

// betterCandidate reports whether candidate a beats candidate b under the
// paper's rule: larger |T_ε(X(Si))| first, ties toward the larger root ID.
// A further deterministic tie-break on version handles boosted runs where
// the same root wins in two versions.
func betterCandidate(aSize int32, aRoot int64, aVer int32, bSize int32, bRoot int64, bVer int32) bool {
	if aSize != bSize {
		return aSize > bSize
	}
	if aRoot != bRoot {
		return aRoot > bRoot
	}
	return aVer > bVer
}

// popcount16 is a tiny helper for subset sizes.
func popcount(b int) int { return bits.OnesCount(uint(b)) }
