package congest

import (
	"math/rand"
	"testing"
)

// TestPermutedIDsMatchesPerm pins the in-place ID permutation to the
// rand.Perm it replays, both into a fresh buffer and into one reused
// (still holding the previous seed's IDs) across seeds.
func TestPermutedIDsMatchesPerm(t *testing.T) {
	var buf []int64
	for _, n := range []int{0, 1, 2, 1000, 1 << 17} {
		for _, seed := range []int64{0, 1, 42, -7} {
			want := rand.New(rand.NewSource(seed ^ 0x1dfa_c0de)).Perm(n)
			buf = PermutedIDsInto(buf, n, seed)
			fresh := PermutedIDs(n, seed)
			if len(buf) != n || len(fresh) != n {
				t.Fatalf("n=%d seed=%d: lengths %d (reused) / %d (fresh)", n, seed, len(buf), len(fresh))
			}
			for i, p := range want {
				if buf[i] != int64(p) || fresh[i] != int64(p) {
					t.Fatalf("n=%d seed=%d: id[%d] = %d (reused) / %d (fresh), rand.Perm %d",
						n, seed, i, buf[i], fresh[i], p)
				}
			}
		}
	}
}

// TestCoinBankMatchesNodeRand pins the flat bank to the rand.Rand
// streams the simulators draw from, draw for draw, including after the
// used bank is re-keyed to an earlier seed.
func TestCoinBankMatchesNodeRand(t *testing.T) {
	const nodes, draws = 1000, 8
	var b CoinBank
	for _, seed := range []int64{1, 3, -99, 1} {
		b.Reset(seed, nodes)
		for v := 0; v < nodes; v++ {
			r := NewNodeRand(seed, int64(v))
			for i := 0; i < draws; i++ {
				if got, want := b.Float64(v), r.Float64(); got != want {
					t.Fatalf("seed %d node %d draw %d: bank %v, NewNodeRand %v", seed, v, i, got, want)
				}
			}
		}
	}
}

// TestCoinBankRedrawsAtOne puts one stream just before a draw whose
// 63-bit value rounds to 1.0 as a float64 — math/rand's Float64 redraws
// there, a 2^-53 event no random test reaches — by inverting the
// splitmix64 finalizer, and checks that the bank redraws exactly as
// rand.Rand does.
func TestCoinBankRedrawsAtOne(t *testing.T) {
	s := unmix64(^uint64(0)) - golden // the next draw is 2^64−1: Int63 = 2^63−1
	if f := float64(int64(mix64(s+golden)>>1)) / (1 << 63); f != 1 {
		t.Fatalf("constructed draw is %v, want exactly 1", f)
	}
	r := rand.New(&counterSource{state: s})
	b := CoinBank{state: []uint64{s}}
	for i := 0; i < 4; i++ {
		got, want := b.Float64(0), r.Float64()
		if got != want || got >= 1 {
			t.Fatalf("draw %d: bank %v, rand.Rand %v", i, got, want)
		}
		if i == 0 && b.state[0] != s+golden+golden {
			t.Fatal("the bank did not redraw the value that rounds to 1")
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
