package core

import (
	"sync"
	"sync/atomic"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
)

// seqCtxCheckEvery bounds how many sampled components the sequential
// replay processes between context checks; exploring one component costs
// O(2^|Si|) work, so a small stride keeps cancellation latency at a few
// components without measurable polling overhead.
const seqCtxCheckEvery = 64

// seqScratch is the reusable per-run state of the centralized replay and
// the cached search. Its graph-sized part holds no pointers: the
// sample sets of up to congest.MaxFusedVersions versions that one coin
// pass fills, their union (the ID walk's tracked set, all-zero between
// runs), the component search's seen set (all-zero between versions),
// the mark set that dedups a component's voters, the ID walk's recorded
// draws, and the K/T kernel's dense voter index. The mark set and the
// voter index are all-zero between components. A density check of a
// component without rows borrows the mark set and clears it again.
// Batch serving solves many graphs back to back, often concurrently,
// so the scratch lives in a sync.Pool: each in-flight run owns one
// scratch exclusively, and parallel SolveBatch workers draw distinct
// instances.
type seqScratch struct {
	coins  congest.Coins
	walk   congest.IDWalk
	worker sync.WaitGroup // the roots worker (startRoots)
	failed atomic.Bool    // the run has failed: the worker skips the walk
	nodes  []int32        // the union's nodes, ascending, after the walk
	ids    []int64        // their protocol IDs

	samples  []*bitset.Set // per version of the running coin pass
	union    *bitset.Set   // every pass's samples; the walk's tracked set
	inS      *bitset.Set   // the running version's, one of samples
	seen     *bitset.Set   // eachComponent's reached nodes
	queue    []int         // eachComponent's running component
	mark     *bitset.Set
	voterBuf []int

	kt ktScratch
}

// sizeFor sizes the graph-sized scratch for an n-vertex graph and a run
// of the given versions. The union, the seen set and the mark set stay
// all-zero across runs; every coin pass overwrites the sample sets it fills.
func (s *seqScratch) sizeFor(n, versions int) {
	if s.mark == nil || s.mark.Len() != n {
		s.mark, s.union, s.seen = bitset.New(n), bitset.New(n), bitset.New(n)
		s.samples = nil
	}
	for len(s.samples) < min(versions, congest.MaxFusedVersions) {
		s.samples = append(s.samples, bitset.New(n))
	}
	if len(s.kt.voterPos) < n {
		s.kt.voterPos = make([]int32, n)
	}
}

var seqScratchPool = sync.Pool{
	New: func() interface{} { return new(seqScratch) },
}

func getSeqScratch() *seqScratch  { return seqScratchPool.Get().(*seqScratch) }
func putSeqScratch(s *seqScratch) { seqScratchPool.Put(s) }
