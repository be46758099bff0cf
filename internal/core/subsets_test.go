package core

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestKMemberCountsMatchesBruteForce: the O(2^k) lowest-bit DP must equal
// the direct popcount-style computation.
func TestKMemberCountsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		adj := make([]bool, k)
		for i := range adj {
			adj[i] = rng.Intn(2) == 0
		}
		cnt := kMemberCounts(k, func(i int) bool { return adj[i] })
		for b := 0; b < 1<<uint(k); b++ {
			want := 0
			for i := 0; i < k; i++ {
				if b&(1<<uint(i)) != 0 && adj[i] {
					want++
				}
			}
			if int(cnt[b]) != want {
				t.Fatalf("trial %d: cnt[%b] = %d, want %d", trial, b, cnt[b], want)
			}
		}
	}
}

func TestMeetsKThresholds(t *testing.T) {
	// K_{2ε²}(X): |Γ(v) ∩ X| ≥ (1−2ε²)|X|.
	cases := []struct {
		cnt, xSize int
		eps        float64
		want       bool
	}{
		{10, 10, 0.3, true},           // full adjacency always qualifies
		{0, 1, 0.3, false},            // (1−0.18)·1 = 0.82 > 0
		{9, 10, 0.3, true},            // 9 ≥ 8.2
		{8, 10, 0.3, false},           // 8 < 8.2
		{0, 0, 0.3, true},             // vacuous
		{82, 100, 0.3, true},          // exactly at threshold 82
		{81, 100, 0.3, false},         // just below
		{1, 1, 0.45, true},            // large ε still positive threshold
		{0, 1, 0.45, false},           // 1−2·0.2025 = 0.595 > 0
		{59, 100, 0.45, false},        // 59 < 59.5
		{60, 100, 0.45, true},         // 60 ≥ 59.5
		{50, 100, 0.7071, true},       // threshold ≈ 0.0 → everything passes
		{1000000, 1000000, 0.1, true}, // big numbers
	}
	for i, c := range cases {
		if got := meetsK(c.cnt, c.xSize, c.eps); got != c.want {
			t.Errorf("case %d: meetsK(%d, %d, %v) = %v, want %v",
				i, c.cnt, c.xSize, c.eps, got, c.want)
		}
	}
}

func TestMeetsOuterKThresholds(t *testing.T) {
	cases := []struct {
		cnt, ySize int
		eps        float64
		want       bool
	}{
		{75, 100, 0.25, true},
		{74, 100, 0.25, false},
		{0, 0, 0.25, true},
		{3, 4, 0.25, true},
		{2, 4, 0.25, false},
	}
	for i, c := range cases {
		if got := meetsOuterK(c.cnt, c.ySize, c.eps); got != c.want {
			t.Errorf("case %d: meetsOuterK(%d, %d, %v) = %v, want %v",
				i, c.cnt, c.ySize, c.eps, got, c.want)
		}
	}
}

func TestArgmaxSubset(t *testing.T) {
	cases := []struct {
		sizes []int32
		want  int32
	}{
		{[]int32{0, 5, 3, 5}, 1},    // tie → smallest index
		{[]int32{0, 0, 0, 0}, 0},    // no candidate
		{[]int32{0, 1}, 1},          // single subset
		{[]int32{99, 1, 2, 3}, 3},   // index 0 ignored
		{[]int32{0, 0, 0, 0, 7}, 4}, // last wins
	}
	for i, c := range cases {
		if got := argmaxSubset(c.sizes); got != c.want {
			t.Errorf("case %d: argmax(%v) = %d, want %d", i, c.sizes, got, c.want)
		}
	}
}

func TestBetterCandidate(t *testing.T) {
	// Paper rule: larger size first, ties → larger root ID, then version.
	if !betterCandidate(5, 1, 0, 4, 9, 0) {
		t.Fatal("larger size must win")
	}
	if !betterCandidate(5, 9, 0, 5, 1, 0) {
		t.Fatal("tie: larger root ID must win")
	}
	if !betterCandidate(5, 9, 1, 5, 9, 0) {
		t.Fatal("tie: larger version must win")
	}
	if betterCandidate(5, 9, 0, 5, 9, 0) {
		t.Fatal("identical candidates: neither is better")
	}
	// Totality: exactly one of a>b, b>a unless equal.
	f := func(aSize, bSize uint8, aRoot, bRoot uint8, aVer, bVer uint8) bool {
		a := betterCandidate(int32(aSize), int64(aRoot), int32(aVer), int32(bSize), int64(bRoot), int32(bVer))
		b := betterCandidate(int32(bSize), int64(bRoot), int32(bVer), int32(aSize), int64(aRoot), int32(aVer))
		equal := aSize == bSize && aRoot == bRoot && aVer == bVer
		if equal {
			return !a && !b
		}
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSubset(t *testing.T) {
	members := []int32{3, 7, 11, 20}
	cases := []struct {
		b    int32
		want []int
	}{
		{0b0001, []int{3}},
		{0b1010, []int{7, 20}},
		{0b1111, []int{3, 7, 11, 20}},
		{0, nil},
	}
	for i, c := range cases {
		got := decodeSubset(members, c.b)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: %v, want %v", i, got, c.want)
			}
		}
	}
}

func TestPopcount(t *testing.T) {
	for b := 0; b < 256; b++ {
		if popcount(b) != bits.OnesCount(uint(b)) {
			t.Fatalf("popcount(%d) wrong", b)
		}
	}
}

func TestWireSizes(t *testing.T) {
	// Every fixed frame must fit the default budget for a range of n, and
	// chunk capacities must be positive.
	for _, n := range []int{2, 5, 16, 100, 1000, 1 << 16, 1 << 20} {
		budget := 4*bitsFor(n+2) + 16 // congest.DefaultFrameBits(n)
		w := newWire(n, 8, budget)
		maxK := HardMaxComponentSize
		if n < maxK {
			maxK = n
		}
		if w.bitChunkCap(maxK) < 1 {
			t.Fatalf("n=%d: bit chunk capacity %d", n, w.bitChunkCap(maxK))
		}
		if w.cntChunkCap(maxK) < 1 {
			t.Fatalf("n=%d: count chunk capacity %d", n, w.cntChunkCap(maxK))
		}
		if w.bitChunkCap(1) > 64 {
			t.Fatalf("n=%d: bit chunk capacity exceeds carrier word", n)
		}
		frames := []interface{ BitLen() int }{
			w.sampled(),
			w.bfsOffer(int64(n-1), int32(n-1), int32(n-1)),
			w.treeClaim(),
			w.compID(int32(n - 1)),
			w.compDone(),
			w.shareStart(int32(n-1), int64(n-1), int32(n)),
			w.shareID(int32(n-1), int32(n-1)),
			w.leafClaim(int32(n - 1)),
			w.announce(int32(n-1), 7, int64(n-1), int32(n)),
			w.vote(int32(n-1), 7, true),
			w.voteUp(int32(n-1), 7, false),
			w.commit(maxK, int32(n-1), 7, int32(1<<maxK-1)),
		}
		if need := w.minFrameBits(maxK); need > budget {
			t.Fatalf("n=%d: minFrameBits %d exceeds budget %d", n, need, budget)
		}
		for i, fr := range frames {
			if fr.BitLen() > budget {
				t.Fatalf("n=%d frame %d: %d bits > budget %d", n, i, fr.BitLen(), budget)
			}
			if fr.BitLen() < 1 {
				t.Fatalf("n=%d frame %d: non-positive size", n, i)
			}
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ x, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bitsFor(c.x); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}
