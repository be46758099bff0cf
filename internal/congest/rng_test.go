package congest

import (
	"maps"
	"math/rand"
	"testing"

	"nearclique/internal/bitset"
)

// TestPermutedIDsMatchesPerm pins the ID permutation to the rand.Perm
// whose draws and swaps it replays.
func TestPermutedIDsMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 17} {
		for _, seed := range []int64{0, 1, 42, -7} {
			want := rand.New(rand.NewSource(seed ^ 0x1dfa_c0de)).Perm(n)
			got := PermutedIDs(n, seed)
			if len(got) != n {
				t.Fatalf("n=%d seed=%d: length %d", n, seed, len(got))
			}
			for i, p := range want {
				if got[i] != int64(p) {
					t.Fatalf("n=%d seed=%d: id[%d] = %d, rand.Perm %d", n, seed, i, got[i], p)
				}
			}
		}
	}
}

// TestSampledIDsMatchPermutedIDs pins the backward ID walk to the full
// permutation: every node of small graphs, random subsets (with repeats
// and in random order), and the two end positions, through one pooled
// walk and one tracked set that must be all-zero after every call.
func TestSampledIDsMatchPermutedIDs(t *testing.T) {
	var w IDWalk
	var buf []int64
	for _, n := range []int{1, 2, 3, 64, 1000, 1 << 17} {
		tracked := bitset.New(n)
		for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
			perm := PermutedIDs(n, seed)
			rng := rand.New(rand.NewSource(int64(n) ^ seed))
			queries := [][]int32{{0, int32(n - 1)}}
			if n <= 1000 {
				all := make([]int32, n)
				for v := range all {
					all[v] = int32(v)
				}
				queries = append(queries, all)
			}
			for _, size := range []int{1, 7, 200} {
				q := make([]int32, size)
				for i := range q {
					q[i] = int32(rng.Intn(n))
				}
				queries = append(queries, q)
			}
			for _, q := range queries {
				w.Record(n, seed)
				buf = w.Walk(buf, q, tracked)
				if len(buf) != len(q) {
					t.Fatalf("n=%d seed=%d: %d IDs for %d nodes", n, seed, len(buf), len(q))
				}
				for i, v := range q {
					if buf[i] != perm[v] {
						t.Fatalf("n=%d seed=%d: node %d has ID %d, PermutedIDs %d", n, seed, v, buf[i], perm[v])
					}
				}
				if c := tracked.Count(); c != 0 {
					t.Fatalf("n=%d seed=%d: %d tracked bits left set", n, seed, c)
				}
			}
		}
	}
}

// BenchmarkPermutedIDs compares the two ways to learn protocol IDs at
// n = 1e6: the full permutation the simulators build, and the IDs of
// 1000 nodes (a solve's sample at the repository benchmark's n = 1e6
// shape) through the backward walk the centralized replay runs.
func BenchmarkPermutedIDs(b *testing.B) {
	const n, sampled = 1_000_000, 1000
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchIDs = PermutedIDs(n, int64(i))
		}
	})
	b.Run("sampled-1000", func(b *testing.B) {
		var w IDWalk
		tracked := bitset.New(n)
		rng := rand.New(rand.NewSource(1))
		nodes := make([]int32, sampled)
		for i := range nodes {
			nodes[i] = int32(rng.Intn(n))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Record(n, int64(i))
			benchIDs = w.Walk(benchIDs, nodes, tracked)
		}
	})
}

var benchIDs []int64

// TestCoinsMatchNodeRand pins the in-place coins to the rand.Rand
// streams the simulators draw from, draw for draw over four versions,
// including after the used value is re-keyed to an earlier seed.
func TestCoinsMatchNodeRand(t *testing.T) {
	const nodes, versions = 1000, 4
	var c Coins
	for _, seed := range []int64{1, 3, -99, 1} {
		c.Reset(seed)
		for v := 0; v < nodes; v++ {
			r := NewNodeRand(seed, int64(v))
			for ver := 0; ver < versions; ver++ {
				f1, f2 := c.Pair(v, ver)
				if w1, w2 := r.Float64(), r.Float64(); f1 != w1 || f2 != w2 {
					t.Fatalf("seed %d node %d version %d: coins (%v, %v), NewNodeRand (%v, %v)",
						seed, v, ver, f1, f2, w1, w2)
				}
			}
		}
	}
}

// TestCoinsRedrawAtOne keys one node's stream just before a draw whose
// 63-bit value rounds to 1.0 as a float64 — math/rand's Float64 redraws
// there, a 2^-53 event no random test reaches — by inverting the
// splitmix64 finalizer twice (the draw, then splitSeed), and checks that
// the coins redraw exactly as rand.Rand does: that node's version-0
// coins skip a counter and every later version shifts by one.
func TestCoinsRedrawAtOne(t *testing.T) {
	const node = 3
	seed, key := redrawSeed(node)
	if f := unitFloat(key + golden); f != 1 {
		t.Fatalf("constructed draw is %v, want exactly 1", f)
	}
	if got := uint64(splitSeed(seed, node)); got != key {
		t.Fatalf("splitSeed(%d, %d) = %#x, want %#x", seed, node, got, key)
	}
	var c Coins
	c.Reset(seed)
	r := NewNodeRand(seed, node)
	for ver := 0; ver < 4; ver++ {
		f1, f2 := c.Pair(node, ver)
		if w1, w2 := r.Float64(), r.Float64(); f1 != w1 || f2 != w2 || f1 >= 1 {
			t.Fatalf("version %d: coins (%v, %v), rand.Rand (%v, %v)", ver, f1, f2, w1, w2)
		}
		shifted := uint64(2*ver + 2) // counters 2ver+1, 2ver+2, one later
		if ver == 0 {
			shifted = 2 // counter 1 redrawn: counters 2 and 3
		}
		if f1 != unitFloat(key+shifted*golden) || f2 != unitFloat(key+(shifted+1)*golden) {
			t.Fatalf("version %d: coins (%v, %v) are not counters %d and %d", ver, f1, f2, shifted, shifted+1)
		}
	}
	if c.Reset(seed); len(c.extra) != 0 {
		t.Fatal("Reset kept a redraw offset")
	}
}

// redrawSeed returns the seed under which node's stream key is key and
// its first draw is 2^64−1 (Int63 = 2^63−1), which rounds to 1.0.
func redrawSeed(node int64) (seed int64, key uint64) {
	key = unmix64(^uint64(0)) - golden
	gamma := uint64(golden)
	return int64(unmix64(key) - gamma*uint64(node+1)), key
}

// TestCoinsFastPathMatchesPair pins the read-only fast path and the
// split sampling pass to Pair: with redraw offsets seeded for chosen
// nodes, and under a seed whose node 3 redraws its first draw, TryPair
// returns Pair's coins wherever it reports ok, and fails only where a
// draw rounds to 1; and Sample at any split gives the sample set, and
// the redraw record, of the serial loop over Pair, version by version.
func TestCoinsFastPathMatchesPair(t *testing.T) {
	const n, versions = 1 << 15, 3
	const p1, p2 = 0.1, 0.12
	atOne, _ := redrawSeed(3)
	seeded := map[int]uint64{0: 1, 63: 2, 64: 1, 4097: 3, n - 1: 2}
	reset := func(c *Coins, seed int64) {
		c.Reset(seed)
		c.extra = maps.Clone(seeded)
	}
	for _, seed := range []int64{1, -99, atOne} {
		var ref Coins
		reset(&ref, seed)
		want := make([]*bitset.Set, versions)
		failed := 0
		for r := range want {
			want[r] = bitset.New(n)
			for v := 0; v < n; v++ {
				f1, f2, ok := ref.TryPair(v, r)
				w1, w2 := ref.Pair(v, r)
				switch {
				case ok && (f1 != w1 || f2 != w2):
					t.Fatalf("seed %d node %d version %d: TryPair (%v, %v), Pair (%v, %v)", seed, v, r, f1, f2, w1, w2)
				case !ok && f1 != 1 && f2 != 1:
					t.Fatalf("seed %d node %d version %d: TryPair failed on (%v, %v), neither 1", seed, v, r, f1, f2)
				case !ok:
					failed++
				}
				if w1 < p1 || w2 < p2 {
					want[r].Add(v)
				}
			}
		}
		if seed == atOne && failed == 0 {
			t.Fatal("no draw needed a redraw; the slow path went untested")
		}
		for _, parts := range []int{1, 2, 3, 7} {
			var c Coins
			reset(&c, seed)
			in := bitset.New(n)
			for r := range want {
				size := c.Sample(in, r, p1, p2, parts)
				if !in.Equal(want[r]) || size != want[r].Count() {
					t.Fatalf("seed %d version %d parts %d: sample of %d differs from the serial one of %d",
						seed, r, parts, size, want[r].Count())
				}
			}
			if !maps.Equal(c.extra, ref.extra) {
				t.Fatalf("seed %d parts %d: redraw record %v, serial %v", seed, parts, c.extra, ref.extra)
			}
		}
	}
}

// unmix64 inverts mix64: each xorshift and each odd multiplier is a
// bijection on 64-bit words.
func unmix64(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= inverseOdd(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverseOdd(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// unxorshift inverts y = x ^ (x >> s); each pass fixes s more top bits.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for fixed := s; fixed < 64; fixed += s {
		x = y ^ (x >> s)
	}
	return x
}

// inverseOdd returns a⁻¹ mod 2^64 by Newton's iteration, which doubles
// the number of correct low bits per step from the 3 an odd a starts with.
func inverseOdd(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}
