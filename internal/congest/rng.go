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
// network seed: the stream Context.Rand draws from. Exported so that
// centralized reference implementations (internal/core's sequential path)
// can replay the exact coin flips of a distributed run.
func NewNodeRand(seed, node int64) *rand.Rand {
	return rand.New(&counterSource{state: uint64(splitSeed(seed, node))})
}

// CoinBank holds the per-node counter streams of one run as a flat array
// of states, one word per node and no pointers, so a centralized replay
// of an n-node run keeps n words the garbage collector never scans, and
// re-keying it for the next run allocates nothing. Float64(v) draws
// exactly what NewNodeRand(seed, v).Float64() would.
//
// A CoinBank is not safe for concurrent use; callers pool whole banks.
type CoinBank struct {
	state []uint64
}

// Reset keys the bank to the n node streams of seed, each at its first
// draw, reusing the bank's array when it is large enough.
func (b *CoinBank) Reset(seed int64, n int) {
	if cap(b.state) < n {
		b.state = make([]uint64, n)
	}
	b.state = b.state[:n]
	for v := range b.state {
		b.state[v] = uint64(splitSeed(seed, int64(v)))
	}
}

// Float64 returns node v's next draw in [0, 1). It is math/rand's
// Rand.Float64 over counterSource, including the redraw when the 63-bit
// value rounds to 1.
func (b *CoinBank) Float64(v int) float64 {
	for {
		b.state[v] += golden
		if f := float64(int64(mix64(b.state[v])>>1)) / (1 << 63); f != 1 {
			return f
		}
	}
}
