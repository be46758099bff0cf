package congest

import (
	"context"
	"fmt"
	"sort"

	"nearclique/internal/graph"
)

// This file implements the default executor: a sharded, flat-buffer round
// engine. The per-directed-edge FIFO queues live in one CSR-indexed array
// (see graph.CSR); each round is double-buffered:
//
//	advance:  every active edge pops one queued frame (one frame per edge
//	          per round, the CONGEST pipelining Lemma 5.1 relies on) and
//	          hands it to the receiver's shard;
//	deliver:  every receiver consumes its frames in ascending sender
//	          order and runs Recv, whose Sends refill the queues for the
//	          next round.
//
// The hand-off between the steps adapts to the round's density:
//
//   - Sparse rounds (most protocol phases touch a vanishing fraction of
//     the graph) move (in-edge, frame) pairs through per-shard-pair
//     exchange buckets; delivery sorts each shard's incoming pairs by
//     in-edge index, which is exactly ascending (receiver, sender) order.
//     Nothing proportional to the graph is allocated or scanned.
//   - Dense rounds (≥ 1/denseRoundFraction of all directed edges carry a
//     frame) write frames into a flat receiver-indexed slot array `cur`
//     (in-edge e of node v lives at Offsets[v] ≤ e < Offsets[v+1], via
//     CSR Rev) and every node scans its own contiguous range — no
//     per-frame bookkeeping at all. The slot array is only allocated the
//     first time a phase actually goes dense.
//
// Nodes are partitioned into contiguous shards, one per worker. All
// mutable state is owned by exactly one shard: a node's out-edge queues
// and activation list belong to its own shard (only the owner sends on
// them), and cross-shard hand-off happens only through the exchange
// buckets and slots written during advance and drained by the destination
// shard during deliver — the two steps are separated by a barrier, so the
// engine is data-race-free by construction. No goroutines are spawned per
// round: a phase either runs serially (small rounds) or on a persistent
// pool of one worker per shard, parked between steps.
//
// Everything that could depend on scheduling is order-independent: frames
// are addressed by edge index, per-node delivery order is fixed by CSR
// order, metrics are sums or maxima, and per-node randomness is a counter
// stream (rng.go). Outputs are therefore bit-identical at any worker
// count.

// pair carries one frame to its receiver's shard during a sparse round:
// re is the in-edge index in the receiver's CSR range.
type pair struct {
	re  int32
	msg Message
}

// shard owns a contiguous node range [lo, hi) and every structure touched
// when those nodes send or receive.
type shard struct {
	lo, hi      int
	activeEdges []int32  // this shard's directed edges with queued frames
	out         [][]pair // per destination shard: frames in flight (sparse)
	gather      []pair   // deliver-side merge buffer, reused across rounds

	// Per-round metric accumulators, reduced by the coordinator.
	frames, bits, maxFrame int
}

type shardedEngine struct {
	net *Network
	csr *graph.CSR
	// cur[e] is the frame arriving on in-edge e (receiver-indexed, so
	// node v's incoming frames occupy the contiguous, sender-ascending
	// range Offsets[v]..Offsets[v+1]). Allocated on the first dense
	// round; nil until then. Each slot is written only by its unique
	// sender (advance) and cleared only by its receiver (deliver), with a
	// barrier between, so the exchange is race-free. Every dense deliver
	// drains all slots, so cur is all-nil between rounds.
	cur       []Message
	shards    []shard
	shardSize int  // nodes per shard (ceil(n / len(shards)))
	dense     bool // current round delivers by full scan

	pool *enginePool
}

// denseRoundFraction: a round is dense when more than 1/denseRoundFraction
// of all directed edges carry a frame; scanning every node then beats
// per-frame hand-off.
const denseRoundFraction = 8

// shardedParallelThreshold is the per-step workload below which the
// coordinator runs all shards inline instead of waking the pool; channel
// hand-off costs more than a few thousand queue pops.
const shardedParallelThreshold = 2048

func newShardedEngine(net *Network) *shardedEngine {
	n := net.g.N()
	workers := net.workers
	if workers < 1 {
		workers = 1
	}
	shardSize := (n + workers - 1) / workers
	if shardSize < 1 {
		shardSize = 1
	}
	e := &shardedEngine{
		net:       net,
		csr:       net.csr,
		shards:    make([]shard, workers),
		shardSize: shardSize,
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.lo = i * shardSize
		sh.hi = sh.lo + shardSize
		if sh.lo > n {
			sh.lo = n
		}
		if sh.hi > n {
			sh.hi = n
		}
		sh.out = make([][]pair, workers)
	}
	return e
}

// shardOf returns the shard owning node v.
func (e *shardedEngine) shardOf(v int32) *shard {
	return &e.shards[int(v)/e.shardSize]
}

func (e *shardedEngine) totalActive() int {
	total := 0
	for i := range e.shards {
		total += len(e.shards[i].activeEdges)
	}
	return total
}

// runPhase executes one phase: PhaseStart on every node, then rounds
// until no frame is queued anywhere, returning ErrRoundLimit once
// Options.MaxRounds rounds have run.
func (e *shardedEngine) runPhase(ctx context.Context, name string) error {
	net := e.net
	net.metrics.Phases = append(net.metrics.Phases, PhaseMetrics{Name: name})
	net.currentPhase = &net.metrics.Phases[len(net.metrics.Phases)-1]

	e.startPool()
	defer e.stopPool()

	e.step(opStart, net.g.N())
	for {
		active := e.totalActive()
		if active == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return phaseInterrupted(name, net.metrics.Rounds, err)
		}
		if net.opts.MaxRounds > 0 && net.metrics.Rounds >= net.opts.MaxRounds {
			return fmt.Errorf("%w: %d rounds (phase %s)", ErrRoundLimit, net.metrics.Rounds, name)
		}
		net.metrics.Rounds++
		net.currentPhase.Rounds++
		e.dense = active*denseRoundFraction >= e.csr.NumEdges()
		if e.dense && e.cur == nil {
			e.cur = make([]Message, e.csr.NumEdges())
		}
		framesBefore, bitsBefore := net.metrics.Frames, net.metrics.Bits
		e.step(opAdvance, active)
		e.reduceMetrics()
		e.step(opDeliver, active)
		net.recordRound(active, net.metrics.Frames-framesBefore, net.metrics.Bits-bitsBefore)
	}
	net.currentPhase = nil
	return nil
}

// --- per-shard steps ----------------------------------------------------

type shardOp uint8

const (
	opStart shardOp = iota + 1
	opAdvance
	opDeliver
)

func (e *shardedEngine) exec(si int, op shardOp) {
	switch op {
	case opStart:
		e.startShard(si)
	case opAdvance:
		e.advanceShard(si)
	case opDeliver:
		e.deliverShard(si)
	}
}

func (e *shardedEngine) startShard(si int) {
	net := e.net
	sh := &e.shards[si]
	for v := sh.lo; v < sh.hi; v++ {
		net.procs[v].PhaseStart(net.ctxs[v])
	}
}

// advanceShard moves one frame per active edge from its queue to the
// receiver's shard: a dense round writes the flat slot array, a sparse
// round appends an exchange pair.
func (e *shardedEngine) advanceShard(si int) {
	net := e.net
	sh := &e.shards[si]
	csr := e.csr
	dense := e.dense
	edges := sh.activeEdges
	w := 0
	for _, ed := range edges {
		q := &net.queues[ed]
		msg := q.pop()
		re := csr.Rev[ed]
		if dense {
			e.cur[re] = msg
		} else {
			ts := int(csr.Targets[ed]) / e.shardSize
			sh.out[ts] = append(sh.out[ts], pair{re: re, msg: msg})
		}
		sh.frames++
		b := msg.BitLen()
		sh.bits += b
		if b > sh.maxFrame {
			sh.maxFrame = b
		}
		if q.empty() {
			net.activeFlag[ed] = false
		} else {
			edges[w] = ed
			w++
		}
	}
	sh.activeEdges = edges[:w]
}

// deliverShard hands this round's frames to their receivers in ascending
// (receiver, sender) order.
func (e *shardedEngine) deliverShard(si int) {
	net := e.net
	sh := &e.shards[si]
	csr := e.csr
	if e.dense {
		// Every node scans its own contiguous slot range (ascending
		// sender), draining cur completely.
		for v := sh.lo; v < sh.hi; v++ {
			lo, hi := csr.Offsets[v], csr.Offsets[v+1]
			ctx, proc := net.ctxs[v], net.procs[v]
			for ed := lo; ed < hi; ed++ {
				if msg := e.cur[ed]; msg != nil {
					e.cur[ed] = nil
					proc.Recv(ctx, NodeID(csr.Targets[ed]), msg)
				}
			}
		}
		return
	}
	// Sparse round: merge the exchange buckets addressed to this shard and
	// sort by in-edge index. In-edge ranges are contiguous per receiver,
	// so the order is exactly ascending receiver, then ascending sender.
	gather := sh.gather[:0]
	for wi := range e.shards {
		bucket := e.shards[wi].out[si]
		gather = append(gather, bucket...)
		for i := range bucket {
			bucket[i].msg = nil // keep no frame refs in the bucket's backing array
		}
		e.shards[wi].out[si] = bucket[:0]
	}
	sort.Slice(gather, func(a, b int) bool { return gather[a].re < gather[b].re })
	var (
		ctx  *Context
		proc Proc
		hi   int64
		have bool
	)
	for _, p := range gather {
		if !have || int64(p.re) >= hi {
			v := csr.Targets[csr.Rev[p.re]]
			hi = csr.Offsets[v+1]
			ctx, proc = net.ctxs[v], net.procs[v]
			have = true
		}
		proc.Recv(ctx, NodeID(csr.Targets[p.re]), p.msg)
	}
	// Drop frame references so the GC does not see stale messages.
	for i := range gather {
		gather[i].msg = nil
	}
	sh.gather = gather[:0]
}

func (e *shardedEngine) reduceMetrics() {
	net := e.net
	for i := range e.shards {
		sh := &e.shards[i]
		net.metrics.Frames += sh.frames
		net.metrics.Bits += sh.bits
		net.currentPhase.Frames += sh.frames
		net.currentPhase.Bits += sh.bits
		if sh.maxFrame > net.metrics.MaxFrameBits {
			net.metrics.MaxFrameBits = sh.maxFrame
		}
		sh.frames, sh.bits, sh.maxFrame = 0, 0, 0
	}
}

// --- worker pool --------------------------------------------------------

// enginePool is one persistent goroutine per shard, parked on a command
// channel between steps; the coordinator (the RunPhase caller) acts as the
// barrier by collecting one completion per shard before the next step.
type enginePool struct {
	cmds []chan shardOp
	done chan struct{}
}

func (e *shardedEngine) startPool() {
	if len(e.shards) <= 1 {
		return
	}
	p := &enginePool{
		cmds: make([]chan shardOp, len(e.shards)),
		done: make(chan struct{}, len(e.shards)),
	}
	for i := range e.shards {
		ch := make(chan shardOp, 1)
		p.cmds[i] = ch
		go func(si int, ch chan shardOp) {
			for op := range ch {
				e.exec(si, op)
				p.done <- struct{}{}
			}
		}(i, ch)
	}
	e.pool = p
}

func (e *shardedEngine) stopPool() {
	if e.pool == nil {
		return
	}
	for _, ch := range e.pool.cmds {
		close(ch)
	}
	e.pool = nil
}

// step runs one engine step across all shards: inline when the workload is
// too small to amortize waking the pool, otherwise fanned out with a full
// barrier before returning.
func (e *shardedEngine) step(op shardOp, workload int) {
	if e.pool == nil || workload < shardedParallelThreshold {
		for i := range e.shards {
			e.exec(i, op)
		}
		return
	}
	for _, ch := range e.pool.cmds {
		ch <- op
	}
	for range e.pool.cmds {
		<-e.pool.done
	}
}
