package congest

import (
	"sync"

	"nearclique/internal/bitset"
)

// Sample replaces in's contents with version r's sample: every node
// v < in.Len() whose coins f1, f2 = Pair(v, r) have f1 < p1 or f2 < p2.
// It returns the sample's size.
//
// The pass splits [0, n) into parts ranges aligned to 64 nodes, the
// first on the calling goroutine and each other on a goroutine of its
// own, so that no two goroutines write one word of in. They draw
// through TryPair, which only reads c; a node whose pair needs a redraw
// is set aside, and once every range is done those nodes go through
// Pair in node order. So the sample, and c's record of redraws, are
// those of the serial loop over Pair at any parts.
func (c *Coins) Sample(in *bitset.Set, r int, p1, p2 float64, parts int) int {
	in.Clear()
	if cap(c.redraws) < parts {
		c.redraws = make([][]int, parts)
	}
	c.redraws = c.redraws[:parts]
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.sampleRange(in, r, p1, p2, p, parts)
		}()
	}
	c.sampleRange(in, r, p1, p2, 0, parts)
	wg.Wait()
	for _, vs := range c.redraws {
		for _, v := range vs {
			if f1, f2 := c.Pair(v, r); f1 < p1 || f2 < p2 {
				in.Add(v)
			}
		}
	}
	return in.Count()
}

// sampleRange is range p of Sample's split.
func (c *Coins) sampleRange(in *bitset.Set, r int, p1, p2 float64, p, parts int) {
	n := in.Len()
	lo, hi := (p*n/parts)&^63, ((p+1)*n/parts)&^63
	if p == parts-1 {
		hi = n
	}
	redraw := c.redraws[p][:0]
	for v := lo; v < hi; v++ {
		f1, f2, ok := c.TryPair(v, r)
		switch {
		case !ok:
			redraw = append(redraw, v)
		case f1 < p1 || f2 < p2:
			in.Add(v)
		}
	}
	c.redraws[p] = redraw
}
