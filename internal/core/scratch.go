package core

import (
	"sync"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/frontier"
)

// seqCtxCheckEvery bounds how many sampled components the sequential
// replay processes between context checks; exploring one component costs
// O(2^|Si|) work, so a small stride keeps cancellation latency at a few
// components without measurable polling overhead.
const seqCtxCheckEvery = 64

// seqScratch is the reusable per-run state of the centralized replay and
// the cached search. Its graph-sized part holds no pointers: the
// cluster kernels' traversal scratch, the per-version sample set, the
// mark set that dedups a component's voters and tracks the ID walk's
// positions, the ID walk's recorded draws, and the K/T kernel's dense
// voter index. The mark set and the voter index are all-zero between
// components, and the search probes borrow the mark set for their
// density check on the same terms. The coins keep no per-node array at
// all. Batch serving solves many graphs back to back, often
// concurrently, so the scratch lives in a sync.Pool: each in-flight run
// owns one scratch exclusively, and parallel SolveBatch workers draw
// distinct instances.
type seqScratch struct {
	coins congest.Coins
	walk  congest.IDWalk
	nodes []int32 // every component's members, the ID walk's queries
	ids   []int64 // their protocol IDs

	fsc      *frontier.Scratch
	inS      *bitset.Set
	mark     *bitset.Set
	voterBuf []int

	kt ktScratch
}

// sizeFor sizes the graph-sized scratch for an n-vertex graph. The mark
// set stays all-zero across runs; inS is cleared by every version.
func (s *seqScratch) sizeFor(n int) {
	if s.fsc == nil {
		s.fsc = frontier.NewScratch(n)
	} else {
		s.fsc.Ensure(n)
	}
	if s.inS == nil || s.inS.Len() != n {
		s.inS = bitset.New(n)
		s.mark = bitset.New(n)
	}
}

var seqScratchPool = sync.Pool{
	New: func() interface{} { return new(seqScratch) },
}

func getSeqScratch() *seqScratch  { return seqScratchPool.Get().(*seqScratch) }
func putSeqScratch(s *seqScratch) { seqScratchPool.Put(s) }
