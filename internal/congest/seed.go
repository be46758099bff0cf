package congest

// PermutedIDs returns the protocol-ID assignment a Network with the given
// seed would use: a pseudorandom permutation of [0, n). It is the
// reference IDWalk.SampledIDs is tested against: the centralized replay
// reads the same identities for its sampled nodes only, as Coins reads
// the per-node coin flips NewNodeRand in rng.go draws.
func PermutedIDs(n int, seed int64) []int64 { return permutedIDs(n, seed) }
