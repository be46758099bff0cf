package congest

import (
	"sort"
	"sync"

	"nearclique/internal/bitset"
)

// MaxFusedVersions is the most versions one Coins.Draw fills, so that
// its memory does not grow with the version count.
const MaxFusedVersions = 64

// A 63-bit draw x needs math/rand's redraw, its Float64 x/2^63 rounding
// to 1, exactly when x ≥ redrawAt: when x + redrawPad has its top bit set.
const (
	redrawAt  = 1<<63 - 512
	redrawPad = 1<<63 - redrawAt
)

// Coins draws a run's sampling coins in place instead of storing the
// node streams: node v's two coins of version r, its Float64 calls 2r and
// 2r+1, are draws 2r+1 and 2r+2 of NewNodeRand(seed, v), shifted by one
// for every earlier draw that math/rand redrew, a 2^-53 event per draw.
// A Coins is not safe for concurrent use.
type Coins struct {
	seed   int64
	t1, t2 uint64    // a draw x is heads iff x < t (coinThreshold)
	next   int       // the first version the next Draw fills
	carry  []shift   // nodes whose draws start late at version next, by node
	found  [][]shift // per range of a Draw: its nodes' shifts after it
}

// shift records that node's draws run by counters late.
type shift struct {
	node int
	by   uint64
}

// Reset keys c to the node streams of seed, each at its first draw,
// with coin 1 heads when its Float64 is below p1 and coin 2 below p2.
func (c *Coins) Reset(seed int64, p1, p2 float64) {
	c.seed, c.next, c.carry = seed, 0, c.carry[:0]
	c.t1, c.t2 = coinThreshold(p1), coinThreshold(p2)
}

// coinThreshold returns the T for which a 63-bit draw x has
// float64(x)/2^63 < p exactly when x < T: the least x with
// float64(x) ≥ p·2^63, or 2^63 if there is none. p·2^63 is exact and
// float64(x) monotone, so a binary search on the comparison finds it.
func coinThreshold(p float64) uint64 {
	q := p * (1 << 63)
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		if x := lo + (hi-lo)/2; float64(x) < q {
			lo = x + 1
		} else {
			hi = x
		}
	}
	return lo
}

// Draw sets sets[k] to the sample of version next+k — the nodes whose
// version coins are f1 < p1 or f2 < p2 — and moves next past them, in
// one pass over the nodes. The sets share one length, and
// 1 ≤ len(sets) ≤ MaxFusedVersions.
//
// The pass splits the nodes into parts ranges aligned to 64 nodes, the
// first on the calling goroutine and each other on a goroutine of its
// own, so no two goroutines write one word of a set. A node's draws
// depend on its own stream alone, so the sets are the same at any parts.
func (c *Coins) Draw(sets []*bitset.Set, parts int) {
	if cap(c.found) < parts {
		c.found = make([][]shift, parts)
	}
	c.found = c.found[:parts]
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drawRange(sets, p, parts)
		}()
	}
	c.drawRange(sets, 0, parts)
	wg.Wait()
	c.carry = c.carry[:0]
	for _, f := range c.found {
		c.carry = append(c.carry, f...)
	}
	c.next += len(sets)
}

// drawRange is range p of Draw's split, one block of 64 nodes at a time:
// it computes each node's stream key once, then draws each version's
// word of the block in a straight line (drawWord). Only a block with a
// redraw, or with a shift carried from an earlier Draw, is drawn again
// node by node through math/rand's Float64 loop.
func (c *Coins) drawRange(sets []*bitset.Set, p, parts int) {
	n := sets[0].Len()
	lo, hi := (p*n/parts)&^63, ((p+1)*n/parts)&^63
	if p == parts-1 {
		hi = n
	}
	carry := c.carry[sort.Search(len(c.carry), func(i int) bool { return c.carry[i].node >= lo }):]
	found := c.found[p][:0]
	first := uint64(2*c.next + 1)
	var keyBuf [64]uint64
	for b := lo; b < hi; b += 64 {
		keys := keyBuf[:min(64, hi-b)]
		for i := range keys {
			keys[i] = uint64(splitSeed(c.seed, int64(b+i)))
		}
		redraw := uint64(0)
		if len(carry) != 0 && carry[0].node < b+64 {
			redraw = 1 << 63
		}
		for k, set := range sets {
			w, r := drawWord(keys, (first+uint64(2*k))*golden, c.t1, c.t2)
			set.SetWord(b/64, w)
			redraw |= r
		}
		if redraw>>63 == 0 {
			continue
		}
		for i, key := range keys {
			v, by := b+i, uint64(0)
			if len(carry) != 0 && carry[0].node == v {
				by, carry = carry[0].by, carry[1:]
			}
			ctr := first + by
			draw := func() uint64 {
				x := mix64(key+ctr*golden) >> 1
				for x >= redrawAt {
					ctr, by = ctr+1, by+1
					x = mix64(key+ctr*golden) >> 1
				}
				ctr++
				return x
			}
			for _, set := range sets {
				if x1, x2 := draw(), draw(); x1 < c.t1 || x2 < c.t2 {
					set.Add(v)
				} else {
					set.Remove(v)
				}
			}
			if by != 0 {
				found = append(found, shift{v, by})
			}
		}
	}
	c.found[p] = found
}

// drawWord returns the coin word of the nodes with keys whose first coin
// is at ctr = counter·γ, and the OR of their draws plus redrawPad.
func drawWord(keys []uint64, ctr, t1, t2 uint64) (w, redraw uint64) {
	for i, key := range keys {
		x1, x2 := mix64(key+ctr)>>1, mix64(key+ctr+golden)>>1
		redraw |= (x1 + redrawPad) | (x2 + redrawPad)
		if x1 < t1 || x2 < t2 {
			w |= 1 << (i & 63)
		}
	}
	return w, redraw
}
