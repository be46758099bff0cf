package core

import (
	"slices"

	"nearclique/internal/bitset"
	"nearclique/internal/graph"
)

// This file holds the component-building and decision-stage code shared
// verbatim by the centralized replay and the cached search probes.
// Sharing it is the parity argument: the two differ only in how often
// they evaluate the ε-dependent stages; everything downstream of
// discovery — root election, K/T thresholds, argmax, voting, commit,
// labeling — is one implementation.

// newSeqComp fills a component's identity fields but its root: the
// version and the sorted int32 member list.
func newSeqComp(members []int, ver int) *seqComp {
	sc := &seqComp{version: ver}
	sc.members = make([]int32, len(members))
	for i, m := range members {
		sc.members[i] = int32(m)
	}
	return sc
}

// electRoot sets the component's root, the minimum-protocol-ID member
// (the spanning-tree root the distributed protocol elects), given the
// IDs of ascending nodes that include every member.
func (sc *seqComp) electRoot(nodes []int32, ids []int64) {
	for i, m := range sc.members {
		q, _ := slices.BinarySearch(nodes, m)
		if i == 0 || ids[q] < sc.rootID {
			sc.rootIdx, sc.rootID = m, ids[q]
		}
	}
}

// canAnnounce reports whether the component can ever announce a
// candidate under the size floor minSizeOpt: every T set is a subset of
// its voters, so one with fewer voters than the floor never does. Only
// such a component gets K/T tables.
func (sc *seqComp) canAnnounce(minSizeOpt int) bool {
	return len(sc.voters) >= max(minSizeOpt, 1)
}

// finish evaluates the component's K/T tables at ε and derives its
// announced candidate: the argmax subset and its size, zero when the
// best subset misses the minimum size or the component cannot announce.
func (sc *seqComp) finish(eps float64, minSizeOpt int, x *ktScratch) {
	sc.size = 0
	if !sc.canAnnounce(minSizeOpt) {
		return
	}
	sc.evalKT(eps, x)
	sc.bStar = argmaxSubset(sc.tcounts)
	minSize := int32(max(minSizeOpt, 1))
	if sc.bStar > 0 && sc.tcounts[sc.bStar] >= minSize {
		sc.size = sc.tcounts[sc.bStar]
	}
}

// ballot is the decision stage's voter → component adjacency as one
// flat CSR: voter j's adjacent components are the comps indices
// cands[off[j]:off[j+1]]. Voters are numbered in first-appearance order;
// no order is needed, since ack counting is order-free and the per-voter
// best is a strict total order. The solve builds one ballot per run, the
// search one per bisection, shared by every probe and the
// materialization.
type ballot struct {
	off   []int32
	cands []int32
}

// newBallot builds the ballot of comps in two passes through the dense
// voter index x.voterPos that seqScratch.sizeFor sized, all-zero on
// entry and on return: the first numbers the distinct voters and counts
// their components, the second places every component and clears a
// voter's entry at its last occurrence. A component that cannot
// announce under the size floor minSizeOpt is left out: it never
// receives an ack.
func newBallot(comps []*seqComp, x *ktScratch, minSizeOpt int) ballot {
	pos := x.voterPos
	total := 0
	for _, sc := range comps {
		if sc.canAnnounce(minSizeOpt) {
			total += len(sc.voters)
		}
	}
	off := make([]int32, 1, total+1)
	for _, sc := range comps {
		if !sc.canAnnounce(minSizeOpt) {
			continue
		}
		for _, u := range sc.voters {
			if pos[u] == 0 {
				off = append(off, 0)
				pos[u] = int32(len(off) - 1)
			}
			off[pos[u]]++
		}
	}
	// off[j+1] holds voter j's count; next[j] walks its slots.
	next := make([]int32, len(off)-1)
	for j := range next {
		next[j] = off[j]
		off[j+1] += off[j]
	}
	cands := make([]int32, total)
	for ci, sc := range comps {
		if !sc.canAnnounce(minSizeOpt) {
			continue
		}
		for _, u := range sc.voters {
			j := pos[u] - 1
			cands[next[j]] = int32(ci)
			if next[j]++; next[j] == off[j+1] {
				pos[u] = 0
			}
		}
	}
	return ballot{off: off, cands: cands}
}

// count runs the votes over the evaluated comps: every voter acks its
// best adjacent candidate (size > 0) and aborts the rest, and acked[ci]
// receives component ci's ack count. A candidate commits iff every one
// of its voters acked it.
func (b *ballot) count(comps []*seqComp, acked []int32) {
	clear(acked)
	for j := 0; j+1 < len(b.off); j++ {
		best := int32(-1)
		for _, ci := range b.cands[b.off[j]:b.off[j+1]] {
			sc := comps[ci]
			if sc.size == 0 {
				continue
			}
			if best < 0 || betterCandidate(sc.size, sc.rootID, int32(sc.version),
				comps[best].size, comps[best].rootID, int32(comps[best].version)) {
				best = ci
			}
		}
		if best >= 0 {
			acked[best]++
		}
	}
}

// committed reports whether a component with acked acks commits.
func committed(sc *seqComp, acked int32) bool {
	return sc.size > 0 && int(acked) == len(sc.voters)
}

// decideAndCommit runs the decision stage over the collected components
// of all versions through their ballot b: every voter acks its best
// adjacent candidate and aborts the rest; a candidate commits iff no
// adjacent voter aborted; each committed candidate takes its label, its
// members (the T set, ascending) and its density (seqComp.density, with
// x's buffers and set as scratch), and the sorted candidate list is
// stored in res. The acks are counts per component index, so the stage
// is deterministic regardless of component or voter visit order.
func decideAndCommit(g *graph.Graph, opts Options, comps []*seqComp, b *ballot, res *Result, x *ktScratch, set *bitset.Set) {
	acked := make([]int32, len(comps))
	b.count(comps, acked)

	var out []Candidate
	for ci, sc := range comps {
		if !committed(sc, acked[ci]) {
			continue
		}
		label := sc.rootID*int64(opts.Versions) + int64(sc.version)
		membersOut := make([]int, 0, sc.size) // the announced |T|
		for i, u := range sc.voters {
			if sc.inT(i, sc.bStar) {
				membersOut = append(membersOut, u)
			}
		}
		out = append(out, Candidate{
			Label:   label,
			Version: sc.version,
			Members: membersOut,
			SubsetX: decodeSubset(sc.members, sc.bStar),
			Density: sc.density(g, x, set, workers(opts.Parallelism)),
		})
	}
	res.Candidates = sortCandidates(out)
}
