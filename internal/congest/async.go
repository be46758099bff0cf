package congest

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand" //nclint:allow determinism -- delay jitter comes from a counterSource keyed by (seed, edge), not a shared source
	"sort"

	"nearclique/internal/flight"
)

// This file implements an asynchronous executor with Awerbuch's
// α-synchronizer (the paper's §2: "any synchronous algorithm can be
// executed in an asynchronous environment using a synchronizer [3]").
//
// Messages experience arbitrary per-message delays in [1, MaxDelay]. The
// synchronizer reproduces the synchronous semantics exactly:
//
//   - Each node's round-r protocol frames (one per edge, popped from the
//     same per-edge FIFO queues the synchronous executor uses) are sent
//     with random delays.
//   - Every protocol frame is acknowledged; a node that has collected all
//     acks for its round-r frames is "safe(r)" and announces that to all
//     neighbors.
//   - A node finishes round r — processing the round's received frames in
//     ascending sender order, exactly like the synchronous executor — once
//     it is safe(r) and has heard safe(r) from every neighbor.
//
// Because the per-round delivery sets and processing order coincide with
// the synchronous executor's, the protocol outputs are bit-for-bit
// identical; the price is the synchronizer's overhead of one ack per frame
// plus Θ(|E|) safe-signals per round, which the metrics expose
// (Metrics.AsyncAcks, Metrics.AsyncSafes, Metrics.AsyncVirtualTime).

type eventKind uint8

const (
	evFrame eventKind = iota + 1
	evAck
	evSafe
)

type event struct {
	time  int64
	seq   int64
	kind  eventKind
	from  NodeID
	to    NodeID
	round int32
	msg   Message
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// delivery is one frame buffered at its receiver until its round runs.
type delivery struct {
	from NodeID
	msg  Message
}

// asyncNodeState holds the synchronizer bookkeeping for one node.
type asyncNodeState struct {
	round       int32
	pendingAcks int
	safeSelf    bool
	safeHeard   map[int32]int        // round -> neighbor safe signals heard
	inbox       map[int32][]delivery // round -> buffered frames
	active      bool                 // degree > 0 and participating
}

// asyncEngine drives one phase of the α-synchronized execution.
type asyncEngine struct {
	net      *Network
	rng      *rand.Rand
	maxDelay int

	queue eventQueue
	seq   int64
	now   int64

	nodes []asyncNodeState

	// outstanding protocol work: queued frames + in flight + buffered
	// inboxes. The phase ends when it reaches zero.
	outstanding int

	// lastSends tracks each Context's cumulative send count so new
	// enqueues by Recv/PhaseStart can be charged to outstanding.
	lastSends []int

	// lastFrames/lastBits checkpoint the network metrics at the previous
	// flight round event, so each event carries that virtual round's
	// traffic delta. Only maintained when a recorder is attached.
	lastFrames, lastBits int
}

func newAsyncEngine(net *Network) *asyncEngine {
	e := &asyncEngine{
		net:       net,
		rng:       rand.New(rand.NewSource(net.opts.Seed ^ 0x5afe_a5ec)),
		maxDelay:  net.opts.AsyncMaxDelay,
		nodes:     make([]asyncNodeState, net.g.N()),
		lastSends: make([]int, net.g.N()),
	}
	if e.maxDelay < 1 {
		e.maxDelay = 5
	}
	return e
}

func (e *asyncEngine) schedule(kind eventKind, from, to NodeID, round int32, msg Message) {
	e.seq++
	heap.Push(&e.queue, &event{
		time: e.now + 1 + e.rng.Int63n(int64(e.maxDelay)),
		seq:  e.seq, kind: kind, from: from, to: to, round: round, msg: msg,
	})
}

// chargeSends moves newly enqueued frames (from a PhaseStart or Recv
// callback on node v) into the outstanding count.
func (e *asyncEngine) chargeSends(v NodeID) {
	c := e.net.ctxs[v]
	if delta := c.sends - e.lastSends[v]; delta > 0 {
		e.outstanding += delta
		e.lastSends[v] = c.sends
	}
}

// asyncCtxCheckEvery bounds how many events the asynchronous executor
// processes between context checks: individual events are microseconds of
// work, so polling ctx.Err() on each would dominate, while a few thousand
// events stay well inside one synchronous round's worth of work.
const asyncCtxCheckEvery = 4096

// runPhase executes one phase asynchronously. Returns ErrRoundLimit if any
// node's round counter exceeds the configured bound, or a wrapped
// context error when ctx is canceled mid-phase.
func (e *asyncEngine) runPhase(ctx context.Context, name string) error {
	net := e.net
	net.metrics.Phases = append(net.metrics.Phases, PhaseMetrics{Name: name})
	net.currentPhase = &net.metrics.Phases[len(net.metrics.Phases)-1]
	e.queue = e.queue[:0]
	e.now = 0

	for v := range e.nodes {
		st := &e.nodes[v]
		st.round = 0
		st.pendingAcks = 0
		st.safeSelf = false
		st.safeHeard = make(map[int32]int)
		st.inbox = make(map[int32][]delivery)
		st.active = net.g.Degree(v) > 0
	}

	// Phase start (sequential: async execution is event-driven anyway).
	for v := range net.ctxs {
		net.procs[v].PhaseStart(net.ctxs[v])
		e.chargeSends(NodeID(v))
	}
	for v := range e.nodes {
		if e.nodes[v].active {
			e.startRound(NodeID(v))
		}
	}

	maxRound := int32(0)
	e.lastFrames, e.lastBits = net.metrics.Frames, net.metrics.Bits
	for processed := 0; e.outstanding > 0 && e.queue.Len() > 0; processed++ {
		if processed%asyncCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return phaseInterrupted(name, net.metrics.Rounds+int(maxRound), err)
			}
		}
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.time
		switch ev.kind {
		case evFrame:
			e.onFrame(ev)
		case evAck:
			e.onAck(ev)
		case evSafe:
			e.onSafe(ev)
		}
		if r := e.nodes[ev.to].round; r > maxRound {
			maxRound = r
			// One flight round event per increment of the global maximum
			// node round — the async analogue of a synchronous round; the
			// frontier is the synchronizer's pending event count.
			if net.flight != nil {
				net.flight.Record(flight.Event{
					Kind:     flight.KindRound,
					Phase:    net.flightPhase,
					Round:    int64(net.metrics.Rounds) + int64(maxRound),
					Frontier: clampInt32(e.queue.Len()),
					Frames:   int64(net.metrics.Frames - e.lastFrames),
					Bytes:    int64(net.metrics.Bits-e.lastBits) / 8,
				})
				e.lastFrames, e.lastBits = net.metrics.Frames, net.metrics.Bits
			}
			if net.opts.MaxRounds > 0 && net.metrics.Rounds+int(maxRound) > net.opts.MaxRounds {
				return fmt.Errorf("%w: %d node-rounds (phase %s)", ErrRoundLimit,
					net.metrics.Rounds+int(maxRound), name)
			}
		}
	}
	if e.outstanding != 0 {
		panic(fmt.Sprintf("congest: async phase %s deadlocked with %d outstanding frames", name, e.outstanding))
	}

	net.metrics.Rounds += int(maxRound)
	net.currentPhase.Rounds += int(maxRound)
	if e.now > net.metrics.AsyncVirtualTime {
		net.metrics.AsyncVirtualTime = e.now
	}
	net.currentPhase = nil
	return nil
}

// startRound pops one frame per outgoing edge and transmits it; a node
// with nothing to send is immediately safe.
func (e *asyncEngine) startRound(v NodeID) {
	net := e.net
	st := &e.nodes[v]
	st.safeSelf = false
	sent := 0
	base := net.csr.Offsets[v]
	for i := range net.g.Neighbors(int(v)) {
		q := &net.queues[base+int64(i)]
		if q.empty() {
			continue
		}
		// outstanding counts a frame from enqueue until its Recv completes,
		// so moving it from queued to in-flight here is a no-op for the
		// ledger.
		msg := q.pop()
		e.schedule(evFrame, v, NodeID(net.csr.Targets[base+int64(i)]), st.round, msg)
		e.countFrame(msg)
		sent++
	}
	st.pendingAcks = sent
	if sent == 0 {
		e.markSafe(v)
	}
}

func (e *asyncEngine) countFrame(msg Message) {
	net := e.net
	b := msg.BitLen()
	net.metrics.Frames++
	net.metrics.Bits += b
	net.currentPhase.Frames++
	net.currentPhase.Bits += b
	if b > net.metrics.MaxFrameBits {
		net.metrics.MaxFrameBits = b
	}
}

func (e *asyncEngine) onFrame(ev *event) {
	st := &e.nodes[ev.to]
	st.inbox[ev.round] = append(st.inbox[ev.round], delivery{from: ev.from, msg: ev.msg})
	e.net.metrics.AsyncAcks++
	e.schedule(evAck, ev.to, ev.from, ev.round, nil)
}

func (e *asyncEngine) onAck(ev *event) {
	st := &e.nodes[ev.to]
	if ev.round != st.round {
		return // stale ack for an already-finished round (cannot happen; defensive)
	}
	st.pendingAcks--
	if st.pendingAcks == 0 {
		e.markSafe(ev.to)
	}
}

func (e *asyncEngine) markSafe(v NodeID) {
	st := &e.nodes[v]
	if st.safeSelf {
		return
	}
	st.safeSelf = true
	for _, w := range e.net.g.Neighbors(int(v)) {
		e.net.metrics.AsyncSafes++
		e.schedule(evSafe, v, NodeID(w), st.round, nil)
	}
	e.tryAdvance(v)
}

func (e *asyncEngine) onSafe(ev *event) {
	st := &e.nodes[ev.to]
	st.safeHeard[ev.round]++
	e.tryAdvance(ev.to)
}

// tryAdvance finishes node v's current round if v is safe and all
// neighbors have reported safe for it: the round's inbox is processed in
// ascending sender order (identical to the synchronous executor) and the
// next round starts.
func (e *asyncEngine) tryAdvance(v NodeID) {
	net := e.net
	st := &e.nodes[v]
	//nclint:allow ctxflow -- bounded drain: advances at most the rounds already queued; the event pump owns cancellation
	for st.safeSelf && st.safeHeard[st.round] == net.g.Degree(int(v)) {
		box := st.inbox[st.round]
		delete(st.inbox, st.round)
		delete(st.safeHeard, st.round)
		sort.Slice(box, func(a, b int) bool { return box[a].from < box[b].from })
		ctx := net.ctxs[v]
		proc := net.procs[v]
		for _, d := range box {
			proc.Recv(ctx, d.from, d.msg)
		}
		e.outstanding -= len(box)
		e.chargeSends(v)
		st.round++
		if e.outstanding == 0 {
			// Global protocol quiescence: no frame queued, in flight, or
			// buffered anywhere. Stop advancing; the phase is over.
			return
		}
		e.startRound(v)
	}
}
