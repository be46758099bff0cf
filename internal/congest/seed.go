package congest

// PermutedIDs returns the protocol-ID assignment a Network with the given
// seed would use: a pseudorandom permutation of [0, n). Exported so that
// centralized reference implementations can replay the exact identities
// of a distributed run (see internal/core's sequential implementation and
// its equivalence tests); NewNodeRand in rng.go plays the same role for
// the per-node coin flips.
func PermutedIDs(n int, seed int64) []int64 { return permutedIDs(nil, n, seed) }

// PermutedIDsInto is PermutedIDs writing into dst, which is reallocated
// only when its capacity is below n, so a pooled replay reuses one buffer
// across runs.
func PermutedIDsInto(dst []int64, n int, seed int64) []int64 { return permutedIDs(dst, n, seed) }
