// Package bitset provides a dense, fixed-capacity bit set used throughout
// the repository for adjacency rows and for subset-indexed vectors of size
// 2^|Si| in Algorithm DistNearClique's exploration stage.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the integers [0, Len()).
// The zero value is an empty set of length zero; use New to size one.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set capable of holding bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a Set of length n with exactly the given bits set.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear zeroes every bit, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Union sets s = s ∪ t. Panics if lengths differ.
func (s *Set) Union(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Intersect sets s = s ∩ t. Panics if lengths differ.
func (s *Set) Intersect(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Subtract sets s = s \ t. Panics if lengths differ.
func (s *Set) Subtract(t *Set) {
	s.sameLen(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| without allocating. Panics if lengths differ.
func (s *Set) IntersectionCount(t *Set) int {
	s.sameLen(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// IsSubsetOf reports whether every bit of s is also set in t.
func (s *Set) IsSubsetOf(t *Set) bool {
	s.sameLen(t)
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same bits and length.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the set bits in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for each set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// NextSet returns the smallest set bit ≥ i, or -1 if none exists.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// SetWord sets the wi-th backing word of s (bits [64·wi, 64·wi+64)) to
// w, for a pass that fills 64 nodes at a time (the sampling coins). Bits
// of w at or past Len() must be zero.
func (s *Set) SetWord(wi int, w uint64) { s.words[wi] = w }

func (s *Set) sameLen(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", s.n, t.n))
	}
}
