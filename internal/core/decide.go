package core

import "nearclique/internal/graph"

// This file holds the component-building and decision-stage code shared
// verbatim by the sequential replay, the frontier engine, and the cached
// search probes. Sharing it is the parity argument: the engines differ
// only in how they *discover* components and voters (serial BFS vs
// 64-seed cluster floods); everything downstream of discovery — root
// election, K/T thresholds, argmax, voting, commit, labeling — is one
// implementation.

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
// (the spanning-tree root the distributed protocol elects); ids[i] is
// the protocol ID of members[i].
func (sc *seqComp) electRoot(ids []int64) {
	r := 0
	for i, id := range ids {
		if id < ids[r] {
			r = i
		}
	}
	sc.rootIdx, sc.rootID = sc.members[r], ids[r]
}

// finish evaluates the component's K/T tables at ε and derives its
// announced candidate: the argmax subset and its size, zero when the
// best subset misses the minimum size.
func (sc *seqComp) finish(eps float64, minSizeOpt int, x *ktScratch) {
	sc.evalKT(eps, x)
	sc.bStar = argmaxSubset(sc.tcounts)
	minSize := int32(max(minSizeOpt, 1))
	sc.size = 0
	if sc.bStar > 0 && sc.tcounts[sc.bStar] >= minSize {
		sc.size = sc.tcounts[sc.bStar]
	}
}

// decideAndCommit runs the decision stage over the collected components
// of all versions: every voter acks its best adjacent candidate and
// aborts the rest; a candidate commits iff no adjacent voter aborted;
// committed members receive their labels and the candidate list is
// finalized into res. The ack counting is order-free (increments into a
// map), so the stage is deterministic regardless of component or voter
// visit order.
func decideAndCommit(g *graph.Graph, opts Options, comps []*seqComp, res *Result) {
	type voterCand struct {
		sc  *seqComp
		key candKey
	}
	adj := make(map[int][]voterCand)
	for _, sc := range comps {
		key := candKey{rootIdx: sc.rootIdx, version: int32(sc.version)}
		for _, u := range sc.voters {
			adj[u] = append(adj[u], voterCand{sc: sc, key: key})
		}
	}
	acked := make(map[candKey]int) // candidate -> ack count
	for u, cands := range adj {
		_ = u
		bestI := -1
		for i, c := range cands {
			if c.sc.size == 0 {
				continue
			}
			if bestI < 0 || betterCandidate(c.sc.size, c.sc.rootID, c.key.version,
				cands[bestI].sc.size, cands[bestI].sc.rootID, cands[bestI].key.version) {
				bestI = i
			}
		}
		if bestI >= 0 {
			acked[cands[bestI].key]++
		}
	}

	var out []Candidate
	for _, sc := range comps {
		key := candKey{rootIdx: sc.rootIdx, version: int32(sc.version)}
		if sc.size == 0 || acked[key] != len(sc.voters) {
			continue
		}
		label := sc.rootID*int64(opts.Versions) + int64(sc.version)
		var membersOut []int
		for i, u := range sc.voters {
			if sc.inT(i, sc.bStar) {
				res.Labels[u] = label
				membersOut = append(membersOut, u)
			}
		}
		out = append(out, Candidate{
			Label:   label,
			Version: sc.version,
			Members: membersOut,
			SubsetX: decodeSubset(sc.members, sc.bStar),
		})
	}
	res.Candidates = finalizeCandidates(g, out)
}
