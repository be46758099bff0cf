package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Property tests for the word-level operations against the per-bit Set
// API (Contains/Count). Popcount exactness is part of the contract, not
// just membership.

func randomSet(n int, density float64, rng *rand.Rand) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

func TestForEachWordMatchesPerBitScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := randomSet(n, rng.Float64(), rng)

		// Reconstruct membership from words and compare bit by bit.
		got := make(map[int]bool)
		words := 0
		s.ForEachWord(func(wi int, w uint64) {
			words++
			if w == 0 {
				t.Fatal("ForEachWord visited a zero word")
			}
			if w != s.Word(wi) {
				t.Fatalf("trial %d: word %d mismatch", trial, wi)
			}
			for ; w != 0; w &= w - 1 {
				got[wi*64+bits.TrailingZeros64(w)] = true
			}
		})
		count := 0
		for i := 0; i < n; i++ {
			if s.Contains(i) != got[i] {
				t.Fatalf("trial %d: bit %d: per-bit %v vs word scan %v",
					trial, i, s.Contains(i), got[i])
			}
			if got[i] {
				count++
			}
		}
		if count != s.Count() {
			t.Fatalf("trial %d: reconstructed count %d != Count %d", trial, count, s.Count())
		}
	}
}

func TestWordOutOfRangeIsZero(t *testing.T) {
	s := New(70)
	s.Add(69)
	if s.Word(-1) != 0 || s.Word(2) != 0 || s.Word(100) != 0 {
		t.Fatal("out-of-range Word not zero")
	}
	if s.WordCount() != 2 {
		t.Fatalf("WordCount = %d, want 2", s.WordCount())
	}
	if s.Word(1) != 1<<5 {
		t.Fatalf("Word(1) = %b", s.Word(1))
	}
}

func TestCopyFromReturnsPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		s := randomSet(n, rng.Float64(), rng)
		dst := New(n)
		dst.Add(0) // stale content must be overwritten
		if pop := dst.CopyFrom(s); pop != s.Count() {
			t.Fatalf("trial %d: CopyFrom popcount %d, want %d", trial, pop, s.Count())
		}
		for i := 0; i < n; i++ {
			if dst.Contains(i) != s.Contains(i) {
				t.Fatalf("trial %d: CopyFrom bit %d differs", trial, i)
			}
		}
	}
}

func TestWordOpsPanicOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched CopyFrom did not panic")
		}
	}()
	New(64).CopyFrom(New(65))
}
