package core

import (
	"math/bits"
	"slices"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// This file is the one centralized K/T kernel: exploration steps 4a–4f
// and decision step 1 of Algorithm DistNearClique for a single sampled
// component, shared by the Solve replay and the cached search probes.
// It rests on one fact: whether voter j lies in K_{2ε²}(X_b) depends
// only on its k-bit adjacency mask aⱼ to the members, since
// |Γ(j) ∩ X_b| = popcount(aⱼ & b). So buildKT groups the voters by mask
// once per component — all of it ε-invariant — and
// evalKT computes one K row per mask class instead of one per voter, and
// each voter's neighbor K sum from its (class, count) histogram instead
// of from its neighbors' rows.
//
// A component whose voter rows are no larger than the adjacency that
// fills them, |V|·⌈|V|/64⌉ ≤ Σ_{v∈V} deg v, is dense: the paper's
// premise puts the component that matters there, with voters ≈ the
// planted near-clique. Its voter-induced subgraph G[V], as |V|-bit rows
// in voter-position order, turns the histogram into popcount(row ∧
// class set) per class and every T-set density into Σ_{i∈T}
// popcount(row_i ∧ T). G[V] is symmetric and voters are sorted, so a
// voter's neighbors at higher positions are the suffix of its sorted
// adjacency above it: the rows are filled from those suffixes alone —
// the upper triangle, half the adjacency — and then mirrored by 64×64
// bit transposes. A sparse component — a hub whose rows would outweigh
// its adjacency — counts entry by entry and keeps no rows.
// Only a component that can announce a candidate has K/T tables at all
// (seqComp.canAnnounce).

// classCount is one entry of a voter's class histogram: count of the
// voter's neighbors are voters of mask class class.
type classCount struct {
	class, count int32
}

// ktTables is a component's ε-invariant K/T input.
type ktTables struct {
	classMask  []uint32 // per class: the member-adjacency mask, in first-appearance order
	classSize  []int32  // per class: how many voters carry the mask
	voterClass []int32  // per voter: its class
	histOff    []int32  // voter i's histogram is hist[histOff[i]:histOff[i+1]]
	hist       []classCount
	rowWords   int      // ⌈|V|/64⌉ for a dense component
	rows       []uint64 // per voter, rowWords words: G[V] by voter position; nil = sparse
}

// denseRows reports whether a component with the given voters is dense:
// its rows are no larger than the adjacency that fills them.
func denseRows(g *graph.Graph, voters []int) bool {
	sumDeg := 0
	for _, u := range voters {
		sumDeg += g.Degree(u)
	}
	n := len(voters)
	return n*((n+63)/64) <= sumDeg
}

// ktScratch is the pooled working state of the kernel. The voter index
// is graph-sized (seqScratch.sizeFor) and all-zero outside buildKT and
// newBallot; the rest is sized by the largest component seen.
type ktScratch struct {
	voterPos []int32 // node -> its position+1 in the component's voter list, 0 = not a voter

	masks     []uint32 // per voter, while building
	classOf   []int32  // mask -> class+1, 0 = unseen; reset after each build
	classSets []uint64 // per class, rowWords words: its voters, while building rows
	suffix    []int32  // per voter, with rows: where its adjacency above it starts
	hparts    []histPart
	split     splitter // the fill's and the histogram's voter runs; the density's runs without rows

	tset   []uint64 // a density check's T set by voter position
	tnodes []int    // a density check's T set as nodes, without rows

	kRows   []uint64 // per class: the K row, words per subset table
	nbrK    []int32  // per subset: one voter's neighbor K sum
	kcounts []int32  // per subset: |K_{2ε²}(X_b)| of the last evaluated component
}

// histPart is one histogram worker's state: its per-class counters,
// the classes the current voter touched, and — for every worker but the
// first, which appends to the component's table — its voters' entries.
type histPart struct {
	cnt     []int32
	touched []int32
	hist    []classCount
}

// buildKT captures the component's mask classes and class histograms,
// and its voter rows when rows is set (denseRows). sc.members and
// sc.voters must be set. The rows' upper triangle is filled in up to par
// runs of voters of near-equal suffix length, then mirrored; the
// histograms are then counted in up to par runs of near-equal Σ deg.
func (sc *seqComp) buildKT(g *graph.Graph, x *ktScratch, par int, rows bool) {
	voters := sc.voters
	pos := x.voterPos
	for p, u := range voters {
		pos[u] = int32(p) + 1
	}
	x.masks = resizeZero(x.masks, len(voters))
	// Every neighbor of a member is a voter: a sampled neighbor lies in
	// the same component, an unsampled one is a claimant.
	for i, m := range sc.members {
		for _, w := range g.Neighbors(int(m)) {
			if p := pos[w] - 1; p >= 0 {
				x.masks[p] |= 1 << uint(i)
			}
		}
	}

	kt := &sc.kt
	if need := 1 << uint(len(sc.members)); len(x.classOf) < need {
		x.classOf = make([]int32, need)
	}
	// voterClass and histOff share one allocation.
	idx := make([]int32, 2*len(voters)+1)
	kt.voterClass, kt.histOff = idx[:len(voters):len(voters)], idx[len(voters):]
	for p, a := range x.masks {
		c := x.classOf[a] - 1
		if c < 0 {
			c = int32(len(kt.classMask))
			x.classOf[a] = c + 1
			kt.classMask = append(kt.classMask, a)
			kt.classSize = append(kt.classSize, 0)
		}
		kt.voterClass[p] = c
		kt.classSize[c]++
	}
	for _, a := range kt.classMask {
		x.classOf[a] = 0
	}
	if rows {
		w := (len(voters) + 63) / 64
		kt.rowWords = w
		kt.rows = make([]uint64, len(voters)*w)
		x.classSets = resizeZero(x.classSets, len(kt.classMask)*w)
		for p, c := range kt.voterClass {
			x.classSets[int(c)*w+p>>6] |= 1 << uint(p&63)
		}
		// With no self-loops, u's insertion point in its own adjacency
		// is where the suffix above it starts.
		x.suffix = resizeZero(x.suffix, len(voters))
		for i, u := range voters {
			s, _ := slices.BinarySearch(g.Neighbors(u), int32(u))
			x.suffix[i] = int32(s)
		}
		k := x.split.cut(len(voters), par, func(i int) int { return g.Degree(voters[i]) - int(x.suffix[i]) })
		for p := 1; p < k; p++ {
			x.split.wg.Add(1)
			go func() {
				defer x.split.wg.Done()
				sc.fillUpper(g, x, x.split.cuts[p], x.split.cuts[p+1])
			}()
		}
		sc.fillUpper(g, x, 0, x.split.cuts[1])
		x.split.wg.Wait()
		mirrorRows(kt.rows, len(voters), w)
	}

	// Histogram run p > 0 writes its own entries and its voters' offsets
	// relative to them; after the join they follow run p−1's, offsets
	// shifted.
	k := x.split.cut(len(voters), par, func(i int) int { return g.Degree(voters[i]) })
	for len(x.hparts) < k {
		x.hparts = append(x.hparts, histPart{})
	}
	cuts := x.split.cuts
	for p := 1; p < k; p++ {
		x.split.wg.Add(1)
		go func() {
			defer x.split.wg.Done()
			hp := &x.hparts[p]
			hp.hist = sc.histogram(g, x, hp, cuts[p], cuts[p+1], hp.hist[:0])
		}()
	}
	kt.hist = sc.histogram(g, x, &x.hparts[0], 0, cuts[1], nil)
	x.split.wg.Wait()
	for p := 1; p < k; p++ {
		base := int32(len(kt.hist))
		for i := cuts[p] + 1; i <= cuts[p+1]; i++ {
			kt.histOff[i] += base
		}
		kt.hist = append(kt.hist, x.hparts[p].hist...)
	}
	for _, u := range voters {
		pos[u] = 0
	}
}

// fillUpper sets, in the rows of voters [lo, hi), the bits of their
// neighbors at higher voter positions: the upper triangle of G[V], read
// from each voter's adjacency suffix. It writes only those rows.
func (sc *seqComp) fillUpper(g *graph.Graph, x *ktScratch, lo, hi int) {
	kt, pos, w := &sc.kt, x.voterPos, sc.kt.rowWords
	for i := lo; i < hi; i++ {
		row := kt.rows[i*w : (i+1)*w]
		for _, v := range g.Neighbors(sc.voters[i])[x.suffix[i]:] {
			if p := pos[v] - 1; p >= 0 {
				row[p>>6] |= 1 << uint(p&63)
			}
		}
	}
}

// mirrorRows ORs the transpose of the upper triangle of the n rows of
// w words into their lower triangle, making them symmetric: block
// (bi, bj), bi ≤ bj — rows 64·bi…, word bj — lands transposed in rows
// 64·bj…, word bi. Block row bj reads only words ≥ bj of earlier block
// rows and its own, and writes only its own words ≤ bj.
func mirrorRows(rows []uint64, n, w int) {
	var blk [64]uint64
	for bj := 0; bj < w; bj++ {
		dst := rows[bj*64*w:]
		dn := min(64, n-bj*64)
		for bi := 0; bi <= bj; bi++ {
			src := rows[bi*64*w+bj:]
			sn := min(64, n-bi*64)
			for r := 0; r < sn; r++ {
				blk[r] = src[r*w]
			}
			clear(blk[sn:])
			transpose64(&blk)
			for r := 0; r < dn; r++ {
				dst[r*w+bi] |= blk[r]
			}
		}
	}
}

// transpose64 transposes the 64×64 bit matrix whose row r is a[r], bit
// c the entry (r, c): it swaps the off-diagonal halves of ever smaller
// blocks (Hacker's Delight §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = ((k | j) + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k|j]) & m
			a[k] ^= t << uint(j)
			a[k|j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}

// histogram appends the class histograms of voters [lo, hi) to hist,
// setting each one's end offset in hist, and returns hist. It reads the
// voter index, the classes, the class sets and the finished rows, and
// writes only hp and those offsets. A voter's histogram is counted by
// popcount where that is cheaper than its adjacency — classes·rowWords
// ≤ deg — and entry by entry otherwise; both list exactly the classes
// with a nonzero count.
func (sc *seqComp) histogram(g *graph.Graph, x *ktScratch, hp *histPart, lo, hi int, hist []classCount) []classCount {
	kt, pos, w := &sc.kt, x.voterPos, sc.kt.rowWords
	hp.cnt = resizeZero(hp.cnt, len(kt.classMask))
	for i := lo; i < hi; i++ {
		nbrs := g.Neighbors(sc.voters[i])
		if kt.rows != nil && len(kt.classMask)*w <= len(nbrs) {
			row := kt.rows[i*w : (i+1)*w]
			for c := range kt.classMask {
				cs, n := x.classSets[c*w:(c+1)*w], 0
				for j, rw := range row {
					n += bits.OnesCount64(rw & cs[j])
				}
				if n > 0 {
					hist = append(hist, classCount{class: int32(c), count: int32(n)})
				}
			}
		} else {
			hp.touched = hp.touched[:0]
			for _, v := range nbrs {
				if p := pos[v] - 1; p >= 0 {
					c := kt.voterClass[p]
					if hp.cnt[c] == 0 {
						hp.touched = append(hp.touched, c)
					}
					hp.cnt[c]++
				}
			}
			for _, c := range hp.touched {
				hist = append(hist, classCount{class: c, count: hp.cnt[c]})
				hp.cnt[c] = 0
			}
		}
		kt.histOff[i+1] = int32(len(hist))
	}
	return hist
}

// evalKT fills the component's T rows and tcounts at ε, and leaves
// kcounts in x.kcounts. The T table is allocated on first use and reused
// by later evaluations of the same component.
func (sc *seqComp) evalKT(eps float64, x *ktScratch) {
	kt := &sc.kt
	k := len(sc.members)
	total := 1 << uint(k)
	words := (total + 63) / 64
	sc.tWords = words
	if len(sc.tcounts) != total {
		sc.tcounts = make([]int32, total)
		sc.tbits = make([]uint64, len(sc.voters)*words)
	} else {
		clear(sc.tcounts)
		clear(sc.tbits)
	}

	// thr[p]: the smallest member count c with meetsK(c, p, ε), or p+1
	// when none does. meetsK is monotone in c, so c ≥ thr[|X_b|] is
	// exactly meetsK, with its float arithmetic untouched.
	var thr [HardMaxComponentSize + 1]int
	for p := 1; p <= k; p++ {
		c := 0
		for c <= p && !meetsK(c, p, eps) {
			c++
		}
		thr[p] = c
	}

	x.kcounts = resizeZero(x.kcounts, total)
	x.kRows = resizeZero(x.kRows, len(kt.classMask)*words)
	for c, a := range kt.classMask {
		row := x.kRows[c*words : (c+1)*words]
		size := kt.classSize[c]
		for b := 1; b < total; b++ {
			if bits.OnesCount32(a&uint32(b)) >= thr[bits.OnesCount32(uint32(b))] {
				row[b>>6] |= 1 << uint(b&63)
				x.kcounts[b] += size
			}
		}
	}

	// nbrK is needed only where the voter's own K row is set, so both
	// the accumulation and the reset touch just those subsets.
	x.nbrK = resizeZero(x.nbrK, total)
	nbrK := x.nbrK
	for i := range sc.voters {
		c := kt.voterClass[i]
		own := x.kRows[int(c)*words : int(c+1)*words]
		for _, h := range kt.hist[kt.histOff[i]:kt.histOff[i+1]] {
			row := x.kRows[int(h.class)*words : int(h.class+1)*words]
			for wi, ow := range own {
				for w := ow & row[wi]; w != 0; w &= w - 1 {
					nbrK[wi<<6|bits.TrailingZeros64(w)] += h.count
				}
			}
		}
		trow := sc.tbits[i*words : (i+1)*words]
		for wi, ow := range own {
			for w := ow; w != 0; w &= w - 1 {
				bit := bits.TrailingZeros64(w)
				b := wi<<6 | bit
				if meetsOuterK(int(nbrK[b]), int(x.kcounts[b]), eps) {
					trow[wi] |= 1 << uint(bit)
					sc.tcounts[b]++
				}
				nbrK[b] = 0
			}
		}
	}
}

// inT reports whether voter i lies in T_ε(X_b) as last evaluated.
func (sc *seqComp) inT(i int, b int32) bool {
	return sc.tbits[i*sc.tWords+int(b>>6)]&(1<<uint(b&63)) != 0
}

// density returns Graph.Density of the component's T set at bStar as
// last evaluated: its exact float expression over the exact integer
// count of adjacency entries inside the set. With rows the count is
// Σ_{i∈T} popcount(row_i ∧ T), O(|V| + |T|·rowWords); without, it is
// summed by x.split in up to par runs with set — all-zero on entry and
// on return — as the membership scratch.
func (sc *seqComp) density(g *graph.Graph, x *ktScratch, set *bitset.Set, par int) float64 {
	kt := &sc.kt
	if kt.rows == nil {
		x.tnodes = x.tnodes[:0]
		for i, u := range sc.voters {
			if sc.inT(i, sc.bStar) {
				x.tnodes = append(x.tnodes, u)
			}
		}
		return x.split.density(g, x.tnodes, set, par)
	}
	w := kt.rowWords
	x.tset = resizeZero(x.tset, w)
	k := 0
	for i := range sc.voters {
		if sc.inT(i, sc.bStar) {
			x.tset[i>>6] |= 1 << uint(i&63)
			k++
		}
	}
	if k <= 1 {
		return 1
	}
	entries := 0
	for wi, tw := range x.tset {
		for ; tw != 0; tw &= tw - 1 {
			i := wi<<6 | bits.TrailingZeros64(tw)
			for j, rw := range kt.rows[i*w : (i+1)*w] {
				entries += bits.OnesCount64(rw & x.tset[j])
			}
		}
	}
	return float64(2*(entries/2)) / float64(k*(k-1))
}

// resizeZero returns s with length n and every element zero, reusing its
// backing array when large enough.
func resizeZero[T uint32 | int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
