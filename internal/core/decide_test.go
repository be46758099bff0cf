package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBallotMatchesMapModel pins the flat ballot to the map-based ack
// count it replaced: on seeded random components whose voter sets
// overlap, newBallot + count gives every component the ack count of the
// per-voter map model, and the dense voter index is all-zero afterwards.
func TestBallotMatchesMapModel(t *testing.T) {
	const n = 200
	x := ktScratch{voterPos: make([]int32, n)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		versions := 1 + rng.Intn(4)
		ids := rng.Perm(n)
		var comps []*seqComp
		for ver := 0; ver < versions; ver++ {
			// Disjoint roots within a version; voters drawn from a small
			// window so that components of every version overlap.
			roots := rng.Perm(n)[:1+rng.Intn(8)]
			for _, r := range roots {
				voters := []int{r}
				for len(voters) < 1+rng.Intn(30) {
					if u := rng.Intn(n / 4); !slices.Contains(voters, u) {
						voters = append(voters, u)
					}
				}
				slices.Sort(voters)
				sc := &seqComp{version: ver, rootIdx: int32(r), rootID: int64(ids[r]), voters: voters}
				if rng.Intn(4) > 0 {
					sc.size = int32(1 + rng.Intn(3)) // ties on size exercise the root/version tie-break
				}
				comps = append(comps, sc)
			}
		}

		adj := make(map[int][]*seqComp)
		for _, sc := range comps {
			for _, u := range sc.voters {
				adj[u] = append(adj[u], sc)
			}
		}
		model := make(map[candKey]int32)
		for _, cands := range adj {
			var best *seqComp
			for _, sc := range cands {
				if sc.size > 0 && (best == nil || betterCandidate(sc.size, sc.rootID, int32(sc.version),
					best.size, best.rootID, int32(best.version))) {
					best = sc
				}
			}
			if best != nil {
				model[candKey{rootIdx: best.rootIdx, version: int32(best.version)}]++
			}
		}

		b := newBallot(comps, &x, 1)
		acked := make([]int32, len(comps))
		b.count(comps, acked)
		for ci, sc := range comps {
			if want := model[candKey{rootIdx: sc.rootIdx, version: int32(sc.version)}]; acked[ci] != want {
				t.Fatalf("seed %d comp %d: %d acks, map model %d", seed, ci, acked[ci], want)
			}
		}
		for v, p := range x.voterPos {
			if p != 0 {
				t.Fatalf("seed %d: voter index of node %d left at %d", seed, v, p)
			}
		}
	}
}
