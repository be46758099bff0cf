package congest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// permutation: every node of small graphs, random subsets (drawn with
// repeats, which the set deduplicates), and the two end positions,
// through one pooled walk. The queried set must be all-zero after
// every call.
func TestSampledIDsMatchPermutedIDs(t *testing.T) {
	var w IDWalk
	for _, n := range []int{1, 2, 3, 64, 1000, 1 << 17} {
		set := bitset.New(n)
		for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
			perm := PermutedIDs(n, seed)
			rng := rand.New(rand.NewSource(int64(n) ^ seed))
			queries := [][]int{{0, n - 1}}
			if n <= 1000 {
				all := make([]int, n)
				for v := range all {
					all[v] = v
				}
				queries = append(queries, all)
			}
			for _, size := range []int{1, 7, 200} {
				q := make([]int, size)
				for i := range q {
					q[i] = rng.Intn(n)
				}
				queries = append(queries, q)
			}
			for _, q := range queries {
				for _, v := range q {
					set.Add(v)
				}
				want := set.Indices()
				w.Record(n, seed)
				nodes, ids := w.Walk(set)
				if len(nodes) != len(want) || len(ids) != len(want) {
					t.Fatalf("n=%d seed=%d: %d nodes and %d IDs for %d queried", n, seed, len(nodes), len(ids), len(want))
				}
				for i, v := range want {
					if int(nodes[i]) != v || ids[i] != perm[v] {
						t.Fatalf("n=%d seed=%d: entry %d is node %d ID %d, want node %d PermutedIDs %d", n, seed, i, nodes[i], ids[i], v, perm[v])
					}
				}
				if c := set.Count(); c != 0 {
					t.Fatalf("n=%d seed=%d: %d set bits left after the walk", n, seed, c)
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
		set := bitset.New(n)
		rng := rand.New(rand.NewSource(1))
		nodes := make([]int, sampled)
		for i := range nodes {
			nodes[i] = rng.Intn(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range nodes {
				set.Add(v)
			}
			w.Record(n, int64(i))
			_, benchIDs = w.Walk(set)
		}
	})
}

var benchIDs []int64

// TestIDDrawMatchesIntn pins idDraw, which permutedIDs and
// IDWalk.Record draw through, to the math/rand Intn(i+1) sequence of
// rand.Perm at n = 1e6, where Int31n's rejection loop runs about a
// hundred times per permutation.
func TestIDDrawMatchesIntn(t *testing.T) {
	const n = 1_000_000
	for _, seed := range []int64{0, 1, 42, -7} {
		want := rand.New(rand.NewSource(seed ^ 0x1dfa_c0de))
		src := &countingSource{Source: idSource(seed)}
		for i := 0; i < n; i++ {
			if got, w := idDraw(src, int32(i+1)), want.Intn(i+1); int(got) != w {
				t.Fatalf("seed %d: draw %d is %d, Intn(%d) %d", seed, i, got, i+1, w)
			}
		}
		if src.calls == n {
			t.Fatalf("seed %d: the rejection loop never ran", seed)
		}
	}
}

// TestIDStreamMatchesSource pins the inline ID stream to the rand.Source
// it copies: ten blocks' worth of values on seeds negative and
// positive, then Intn draws at an n where Int31n rejects about half of
// the values, so the rejection loop redraws from the stream.
func TestIDStreamMatchesSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, -1 << 40} {
		var s idStream
		s.reset(seed)
		src := idSource(seed)
		for i := 0; i < 10*idLag+3; i++ {
			if got, want := s.Int63()>>32, src.Int63()>>32; got != want {
				t.Fatalf("seed %d: value %d is %d, idSource %d", seed, i, got, want)
			}
		}
		// fill(out, n−1) with one slot draws Intn(n), and at
		// n = 2^30+1 Int31n rejects about half of the values.
		const n = 1<<30 + 1
		want := rand.New(src)
		out := make([]uint32, 1)
		rejected := 0
		for i := 0; i < 1000; i++ {
			before := s.i
			s.fill(out, n-1)
			if w := want.Intn(n); int(out[0]) != w {
				t.Fatalf("seed %d: draw %d is %d, Intn(%d) %d", seed, i, out[0], n, w)
			}
			if (s.i-before+idLag)%idLag > 1 {
				rejected++
			}
		}
		if rejected == 0 {
			t.Fatalf("seed %d: the rejection loop never ran", seed)
		}
	}
}

// countingSource counts the values drawn from a rand.Source.
type countingSource struct {
	rand.Source
	calls int
}

func (s *countingSource) Int63() int64 {
	s.calls++
	return s.Source.Int63()
}

// nodeRandSamples returns versions sample sets over n nodes drawn from
// NewNodeRand's streams the way the simulated nodes draw them.
func nodeRandSamples(seed int64, n, versions int, p1, p2 float64) []*bitset.Set {
	sets := make([]*bitset.Set, versions)
	for r := range sets {
		sets[r] = bitset.New(n)
	}
	for v := 0; v < n; v++ {
		rng := NewNodeRand(seed, int64(v))
		for _, set := range sets {
			if f1, f2 := rng.Float64(), rng.Float64(); f1 < p1 || f2 < p2 {
				set.Add(v)
			}
		}
	}
	return sets
}

// drawAll draws versions sample sets over n nodes through c, in passes
// of at most MaxFusedVersions versions.
func drawAll(c *Coins, seed int64, n, versions int, p1, p2 float64, parts int) []*bitset.Set {
	sets := make([]*bitset.Set, versions)
	for r := range sets {
		sets[r] = bitset.New(n)
	}
	c.Reset(seed, p1, p2)
	for first := 0; first < versions; first += MaxFusedVersions {
		c.Draw(sets[first:min(first+MaxFusedVersions, versions)], parts)
	}
	return sets
}

// TestCoinsMatchNodeRand pins the in-place coins to the rand.Rand
// streams the simulators draw from over four versions, including after
// the used value is re-keyed to an earlier seed.
func TestCoinsMatchNodeRand(t *testing.T) {
	const nodes, versions, p1, p2 = 1000, 4, 0.3, 0.4
	var c Coins
	for _, seed := range []int64{1, 3, -99, 1} {
		want := nodeRandSamples(seed, nodes, versions, p1, p2)
		for r, got := range drawAll(&c, seed, nodes, versions, p1, p2, 1) {
			if !got.Equal(want[r]) {
				t.Fatalf("seed %d version %d: coins sample %v, NewNodeRand %v", seed, r, got.Indices(), want[r].Indices())
			}
		}
	}
}

// TestCoinsRedrawAtOne keys one node's stream just before a draw whose
// 63-bit value rounds to 1.0 as a float64 — math/rand's Float64 redraws
// there, a 2^-53 event no random test reaches — by inverting the
// splitmix64 finalizer twice (the draw, then splitSeed), and checks that
// the coins redraw exactly as rand.Rand does: that node's version-0
// coins skip a counter, every later version shifts by one, and the node
// carries its shift of one past the pass.
func TestCoinsRedrawAtOne(t *testing.T) {
	const node, n, versions, p = 3, 64, 8, 0.5
	seed, key := redrawSeed(node, 1, ^uint64(0))
	if x := mix64(key+golden) >> 1; float64(x)/(1<<63) != 1 || x < redrawAt {
		t.Fatalf("constructed draw %#x does not round to 1", x)
	}
	if got := uint64(splitSeed(seed, node)); got != key {
		t.Fatalf("splitSeed(%d, %d) = %#x, want %#x", seed, node, got, key)
	}
	var c Coins
	got := drawAll(&c, seed, n, versions, p, p, 1)
	want := nodeRandSamples(seed, n, versions, p, p)
	unshifted := false
	for r := range got {
		if !got[r].Equal(want[r]) {
			t.Fatalf("version %d: coins sample %v, rand.Rand %v", r, got[r].Indices(), want[r].Indices())
		}
		x1, x2 := mix64(key+uint64(2*r+1)*golden)>>1, mix64(key+uint64(2*r+2)*golden)>>1
		unshifted = unshifted || (x1 < coinThreshold(p) || x2 < coinThreshold(p)) != want[r].Contains(node)
	}
	if !unshifted {
		t.Fatal("the unshifted counters give the same sample; the test cannot see the redraw")
	}
	if len(c.carry) != 1 || c.carry[0] != (shift{node, 1}) {
		t.Fatalf("carried shifts %v, want node %d by 1", c.carry, node)
	}
	if c.Reset(seed, p, p); len(c.carry) != 0 {
		t.Fatal("Reset kept a redraw shift")
	}
}

// redrawSeed returns the seed under which node's stream key is key and
// its draw ctr (from 1) is the 64-bit value z, by inverting mix64 twice.
func redrawSeed(node int64, ctr, z uint64) (seed int64, key uint64) {
	key = unmix64(z) - ctr*golden
	gamma := uint64(golden)
	return int64(unmix64(key) - gamma*uint64(node+1)), key
}

// TestCoinPassMatchesNodeRand pins the fused coin pass to the
// NewNodeRand Float64 pairs, node by node and version by version, at
// 1, 4 and 70 versions (70 takes two passes), split into 1, 2, 3 and 7
// ranges. Its seeds force one draw of one node, on nodes at the ends of
// words and of ranges: a redraw at version 0, in the middle of a pass,
// at the last version of the first pass and in the second pass, the
// least 63-bit draw that is redrawn, and the greatest that is not.
// Every redrawn node, and no other, carries a shift of one past the
// last pass.
func TestCoinPassMatchesNodeRand(t *testing.T) {
	const n, p1, p2 = 1<<12 + 37, 0.1, 0.12
	type forced struct {
		node int
		ctr  uint64
		z    uint64 // the forced draw, before Int63's shift
	}
	cases := []forced{
		{-1, 0, 0}, {0, 1, ^uint64(0)}, {63, 2*31 + 2, ^uint64(0)}, {576, 2*63 + 1, ^uint64(0)},
		{n - 1, 2*66 + 2, ^uint64(0)}, {64, 3, (1<<63 - 512) << 1}, {127, 5, (1<<63-513)<<1 | 1},
	}
	for _, f := range cases {
		seed, redrawn := int64(-99), false
		if f.node >= 0 {
			var key uint64
			seed, key = redrawSeed(int64(f.node), f.ctr, f.z)
			if got := mix64(key + f.ctr*golden); got != f.z {
				t.Fatalf("node %d: draw %d is %#x, want %#x", f.node, f.ctr, got, f.z)
			}
			redrawn = float64(int64(f.z>>1))/(1<<63) == 1
		}
		want := nodeRandSamples(seed, n, 70, p1, p2)
		for _, versions := range []int{1, 4, 70} {
			for _, parts := range []int{1, 2, 3, 7} {
				var c Coins
				got := drawAll(&c, seed, n, versions, p1, p2, parts)
				for r := range got {
					if !got[r].Equal(want[r]) {
						t.Fatalf("node %d forced at draw %d, %d versions, %d parts: version %d's sample of %d differs from NewNodeRand's of %d",
							f.node, f.ctr, versions, parts, r, got[r].Count(), want[r].Count())
					}
				}
				var carry []shift
				if redrawn && f.ctr <= uint64(2*versions) {
					carry = []shift{{f.node, 1}}
				}
				if !slices.Equal(c.carry, carry) {
					t.Fatalf("node %d forced at draw %d, %d versions, %d parts: carried shifts %v, want %v",
						f.node, f.ctr, versions, parts, c.carry, carry)
				}
			}
		}
	}
}

// TestCoinThreshold pins coinThreshold at and next to the boundary: for
// each p of a grid and its float neighbours, T is the least 63-bit x
// with float64(x) ≥ p·2^63, so the draws around it compare to p as
// their Float64 does.
func TestCoinThreshold(t *testing.T) {
	pinned := map[float64]uint64{
		0: 0, 1: redrawAt, 1.5: 1 << 63, math.Inf(1): 1 << 63,
		0x1p-63: 1, math.SmallestNonzeroFloat64: 1, 0.5: 1<<62 - 256,
		math.Nextafter(0.5, 1): 1<<62 + 513, -1: 0,
	}
	for p, want := range pinned {
		if got := coinThreshold(p); got != want {
			t.Errorf("coinThreshold(%v) = %#x, want %#x", p, got, want)
		}
	}
	if got := coinThreshold(math.NaN()); got != 0 {
		t.Errorf("coinThreshold(NaN) = %#x, want 0: no Float64 is below NaN", got)
	}
	for _, p := range []float64{0, 1, 2, 0x1p-63, math.SmallestNonzeroFloat64, 0x1p-1050, 0.002, 0.5} {
		for _, q := range []float64{p, math.Nextafter(p, -1), math.Nextafter(p, 2)} {
			checkCoinThreshold(t, q, 0)
		}
	}
}

// FuzzCoinThreshold checks coinThreshold's boundary property, and one
// draw's coin against its Float64, for arbitrary p and draws.
func FuzzCoinThreshold(f *testing.F) {
	f.Add(0.002, uint64(1)<<50)
	f.Add(0.5, uint64(1)<<62)
	f.Add(1.0, ^uint64(0))
	f.Add(0x1p-63, uint64(1))
	f.Fuzz(func(t *testing.T, p float64, x uint64) {
		checkCoinThreshold(t, p, x>>1)
	})
}

// checkCoinThreshold checks that T = coinThreshold(p) satisfies
// float64(T) ≥ p·2^63 > float64(T−1) where those exist, and that
// draws x, T−1 and T are heads exactly when their Float64 is below p.
func checkCoinThreshold(t *testing.T, p float64, x uint64) {
	t.Helper()
	T, q := coinThreshold(p), p*(1<<63)
	if T > 1<<63 {
		t.Fatalf("p %v: T = %#x exceeds 2^63", p, T)
	}
	if T < 1<<63 && float64(T) < q {
		t.Fatalf("p %v: float64(T = %#x) = %v < p·2^63 = %v", p, T, float64(T), q)
	}
	if T > 0 && !(float64(T-1) < q) {
		t.Fatalf("p %v: float64(T−1 = %#x) = %v ≥ p·2^63 = %v", p, T-1, float64(T-1), q)
	}
	for _, x := range []uint64{x, T - 1, T} {
		if x >= 1<<63 {
			continue
		}
		if heads, f := x < T, float64(int64(x))/(1<<63); heads != (f < p) {
			t.Fatalf("p %v: draw %#x is heads %v, but its Float64 %v < p is %v", p, x, heads, f, f < p)
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

// BenchmarkCoinPass draws the sampling coins of a search at the
// repository benchmark's shapes — 4 versions at n = 1e5, and one version
// at n = 1e6 — in one range, at p = 6/n.
func BenchmarkCoinPass(b *testing.B) {
	for _, shape := range []struct{ n, versions int }{{100_000, 4}, {1_000_000, 1}} {
		b.Run(fmt.Sprintf("n=%d/v=%d", shape.n, shape.versions), func(b *testing.B) {
			sets := make([]*bitset.Set, shape.versions)
			for r := range sets {
				sets[r] = bitset.New(shape.n)
			}
			p := 6 / float64(shape.n)
			var c Coins
			for i := 0; i < b.N; i++ {
				c.Reset(int64(i), p/2, (p-p/2)/(1-p/2))
				c.Draw(sets, 1)
			}
		})
	}
}
