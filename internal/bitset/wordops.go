package bitset

import "math/bits"

// This file holds the word-level operations. The per-bit API
// (Add/Contains/ForEach) is what the protocol logic wants; a pass that
// fills or reads 64 nodes at a time (the sampling coins' SetWord) wants
// to move whole 64-bit words between sets and to know the resulting
// population counts without a second scan. Every operation below is a
// pure word-parallel loop with no data-dependent branching, so its cost
// is ⌈n/64⌉ regardless of contents and its result is independent of any
// iteration order.

// Word returns the wi-th backing word of s (bits [64·wi, 64·wi+64)).
// Out-of-range indices return 0, so callers may iterate a peer set's word
// range without length checks.
func (s *Set) Word(wi int) uint64 {
	if wi < 0 || wi >= len(s.words) {
		return 0
	}
	return s.words[wi]
}

// WordCount returns the number of backing words, ⌈Len()/64⌉.
func (s *Set) WordCount() int { return len(s.words) }

// ForEachWord calls fn(wi, w) for every nonzero backing word of s, in
// increasing word order. It is the word-granular analogue of ForEach:
// it visits 64 vertices per load instead of one.
func (s *Set) ForEachWord(fn func(wi int, w uint64)) {
	for wi, w := range s.words {
		if w != 0 {
			fn(wi, w)
		}
	}
}

// CopyFrom sets s to the contents of t and returns |s|. Lengths must match.
func (s *Set) CopyFrom(t *Set) int {
	s.sameLen(t)
	c := 0
	for i, w := range t.words {
		s.words[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// SetWord sets the wi-th backing word of s (bits [64·wi, 64·wi+64)) to
// w. Bits of w at or past Len() must be zero.
func (s *Set) SetWord(wi int, w uint64) { s.words[wi] = w }
