package core

import (
	"math/bits"

	"nearclique/internal/graph"
)

// This file is the one centralized K/T kernel: exploration steps 4a–4f
// and decision step 1 of Algorithm DistNearClique for a single sampled
// component, shared by the sequential and frontier replays and by the
// cached search probes. It rests on one fact: whether voter j lies in
// K_{2ε²}(X_b) depends only on its k-bit adjacency mask aⱼ to the
// members, since |Γ(j) ∩ X_b| = popcount(aⱼ & b). So buildKT groups the
// voters by mask once per component — all of it ε-invariant — and
// evalKT computes one K row per mask class instead of one per voter, and
// each voter's neighbor K sum from its (class, count) histogram instead
// of from its neighbors' rows.

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
}

// ktScratch is the pooled working state of the kernel. The voter index
// is graph-sized and all-zero outside buildKT; the rest is sized by the
// largest component seen.
type ktScratch struct {
	voterPos []int32 // node -> its position+1 in the component's voter list, 0 = not a voter

	masks   []uint32 // per voter, while building
	classOf []int32  // mask -> class+1, 0 = unseen; reset after each build
	cnt     []int32  // per class, while building one histogram
	touched []int32

	kRows   []uint64 // per class: the K row, words per subset table
	nbrK    []int32  // per subset: one voter's neighbor K sum
	kcounts []int32  // per subset: |K_{2ε²}(X_b)| of the last evaluated component
}

// buildKT captures the component's mask classes and class histograms.
// sc.members and sc.voters must be set.
func (sc *seqComp) buildKT(g *graph.Graph, x *ktScratch) {
	voters := sc.voters
	if len(x.voterPos) < g.N() {
		x.voterPos = make([]int32, g.N())
	}
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
	kt.voterClass = make([]int32, len(voters))
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

	x.cnt = resizeZero(x.cnt, len(kt.classMask))
	kt.histOff = make([]int32, len(voters)+1)
	for i, u := range voters {
		x.touched = x.touched[:0]
		for _, w := range g.Neighbors(u) {
			if p := pos[w] - 1; p >= 0 {
				c := kt.voterClass[p]
				if x.cnt[c] == 0 {
					x.touched = append(x.touched, c)
				}
				x.cnt[c]++
			}
		}
		for _, c := range x.touched {
			kt.hist = append(kt.hist, classCount{class: c, count: x.cnt[c]})
			x.cnt[c] = 0
		}
		kt.histOff[i+1] = int32(len(kt.hist))
	}
	for _, u := range voters {
		pos[u] = 0
	}
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
