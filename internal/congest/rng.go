package congest

// This file IS the counter-based RNG bank the determinism contract routes
// randomness through; it imports math/rand only for the Source interface.
import "math/rand" //nclint:allow determinism -- defines counterSource, the rand.Source every transcript draw routes through

// Per-node randomness is a counter-based stream: node v's i-th draw is
// mix64(key(seed, v) + i·γ) where mix64 is the splitmix64 finalizer and γ
// the golden-ratio increment. Unlike math/rand's lagged-Fibonacci source,
// a stream costs O(1) memory and zero warm-up — at a million nodes the
// difference is gigabytes and seconds — and any draw is addressable by
// (seed, node, counter) alone, which is what makes runs bit-identical
// regardless of worker count or engine: the stream depends only on the
// node identity, never on scheduling.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// counterSource is a rand.Source64 over the splitmix64 stream keyed by a
// node-specific state. The zero value is NOT ready; seed via reset.
type counterSource struct {
	state uint64
}

func (s *counterSource) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

func (s *counterSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *counterSource) Seed(seed int64) { s.state = uint64(seed) }

// NewNodeRand returns node v's private deterministic RNG for the given
// network seed: the stream Context.Rand draws from. Its draw c (from 1)
// is mix64(splitSeed(seed, v) + c·γ), which is how Coins (sample.go)
// replays the exact coin flips of a distributed run in place.
func NewNodeRand(seed, node int64) *rand.Rand {
	return rand.New(&counterSource{state: uint64(splitSeed(seed, node))})
}
