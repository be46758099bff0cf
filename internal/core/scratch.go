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
// the cached search. The graph-sized part is the coin bank and the
// protocol-ID permutation (one word per node each, no pointers), the
// cluster kernels' traversal scratch, the per-version sample set, and
// the mark set that dedups a component's voters. The mark set is
// all-zero between components, and the search probes borrow it for
// their density check on the same terms. The K/T kernel's buffers and
// voter index are sized by the largest component seen instead, never by
// n. Batch serving solves many graphs back to back, often concurrently,
// so the scratch lives in a sync.Pool: each in-flight run owns one
// scratch exclusively, and parallel SolveBatch workers draw distinct
// instances.
type seqScratch struct {
	coins congest.CoinBank
	ids   []int64

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
