package congest

// PermutedIDs returns the protocol-ID assignment a Network with the given
// seed would use: a pseudorandom permutation of [0, n). It is the
// reference IDWalk.Walk is tested against: the centralized replay
// reads the same identities for its sampled nodes only, as Coins
// (sample.go) draws the coin flips of NewNodeRand's streams in place.
// n must be below 2^31, as every graph's node count is.
func PermutedIDs(n int, seed int64) []int64 { return permutedIDs(n, seed) }
