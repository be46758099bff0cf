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

// Coins draws the per-node counter streams of one run in place instead
// of storing them: call c (from 1) of node v's stream is
// mix64(splitSeed(seed, v) + c·γ), so node v's Float64 calls 2r and
// 2r+1 — its two sampling coins of version r — are counters 2r+1 and
// 2r+2, shifted by one for every earlier call that hit math/rand's
// redraw of a value rounding to 1. Only such nodes, a 2^-53 event per
// draw, are stored, so the state is an empty map in practice.
//
// Coins is not safe for concurrent use, except that TryPair only reads:
// any number of goroutines may call it between writes (Reset, Pair,
// Sample).
type Coins struct {
	seed    int64
	extra   map[int]uint64 // node -> counters its earlier draws redrew
	redraws [][]int        // Sample's nodes to redraw, per range
}

// Reset keys c to the node streams of seed, each at its first draw.
func (c *Coins) Reset(seed int64) {
	c.seed = seed
	clear(c.extra)
}

// Pair returns node v's Float64 calls 2r and 2r+1 — what the calls of
// NewNodeRand(seed, v).Float64() with those indices return. It is exact
// when Pair(v, r') was called for every r' < r first, so that any
// earlier redraw is known.
func (c *Coins) Pair(v, r int) (float64, float64) {
	if f1, f2, ok := c.TryPair(v, r); ok {
		return f1, f2
	}
	return c.redraw(v, r)
}

// TryPair is Pair's read-only fast path: it returns Pair(v, r) with ok
// set, or ok false when one of the two draws needs math/rand's redraw
// of a value rounding to 1 — a 2^-53 event per draw — which only Pair
// resolves, since it records the skipped counters.
func (c *Coins) TryPair(v, r int) (f1, f2 float64, ok bool) {
	key, ctr := c.counter(v, r)
	f1, f2 = unitFloat(key+ctr*golden), unitFloat(key+(ctr+1)*golden)
	return f1, f2, f1 != 1 && f2 != 1
}

// counter returns node v's stream key and the counter of its Float64
// call 2r.
func (c *Coins) counter(v, r int) (key, ctr uint64) {
	key = uint64(splitSeed(c.seed, int64(v)))
	ctr = uint64(2*r + 1)
	if len(c.extra) != 0 {
		ctr += c.extra[v]
	}
	return key, ctr
}

// redraw is Pair's slow path: math/rand's Float64 loop, counter by
// counter, recording the counters it skipped.
func (c *Coins) redraw(v, r int) (float64, float64) {
	key, ctr := c.counter(v, r)
	var f [2]float64
	skipped := uint64(0)
	for i := range f {
		for f[i] = unitFloat(key + ctr*golden); f[i] == 1; f[i] = unitFloat(key + ctr*golden) {
			ctr++
			skipped++
		}
		ctr++
	}
	if c.extra == nil {
		c.extra = make(map[int]uint64)
	}
	c.extra[v] += skipped
	return f[0], f[1]
}

// unitFloat is math/rand's Float64 of one counterSource draw before its
// redraw check: the top 63 bits of mix64(state) over 2^63.
func unitFloat(state uint64) float64 {
	return float64(int64(mix64(state)>>1)) / (1 << 63)
}
