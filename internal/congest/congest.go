// Package congest simulates the standard synchronous CONGEST model of
// distributed computing (Peleg 2000), the model of Section 2 of the paper:
//
//   - The system is an undirected graph; nodes are processors, edges are
//     communication links.
//   - Execution proceeds in synchronous rounds. In each round every node
//     may send one message per incident edge (possibly different messages
//     on different edges), receives the messages sent to it, and computes.
//   - Every message is limited to O(log n) bits: a constant number of node
//     identifiers and polynomially-bounded counters.
//
// Protocol logic is supplied as one Proc per node. Sends are enqueued on
// per-directed-edge FIFO queues laid out in one flat CSR-indexed array;
// the runtime delivers at most one frame per directed edge per round,
// which models the pipelining the paper's Lemma 5.1 round accounting
// relies on. Frames exceeding the per-message bit budget cause a panic
// when enforcement is on (a protocol bug), or are recorded in the metrics
// when enforcement is off (how the LOCAL-model "neighbors' neighbors"
// baseline is measured rather than forbidden).
//
// Two interchangeable executors implement these semantics (Options.Engine;
// see DESIGN.md §5): the default sharded flat-buffer engine (sharded.go),
// which partitions nodes across a persistent worker pool and double-
// buffers rounds through per-edge delivery slots, and the legacy
// per-round-scan engine in this file, kept as the differential-testing
// reference. Both are bit-for-bit deterministic at any worker count and
// produce identical outputs and metrics.
//
// Multi-phase protocols advance phases when the network is quiescent (no
// frame queued anywhere); see DESIGN.md §2 for why this synchronizer
// stand-in is faithful for round accounting.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand" //nclint:allow determinism -- all draws go through Context.Rand, seeded from the counterSource bank
	"runtime"
	"sort"
	"sync"

	"nearclique/internal/bitset"
	"nearclique/internal/flight"
	"nearclique/internal/graph"
)

// Engine selects the executor implementation. Both satisfy the identical
// CONGEST semantics and produce bit-identical outputs and metrics; the
// legacy engine exists as the reference for differential testing.
type Engine uint8

const (
	// EngineSharded is the default: the flat-buffer sharded round engine.
	EngineSharded Engine = iota
	// EngineLegacy is the original per-directed-edge FIFO queue engine
	// with per-round inbox scans.
	EngineLegacy
)

func (e Engine) String() string {
	if e == EngineLegacy {
		return "legacy"
	}
	return "sharded"
}

// NodeID is a dense node index in [0, n).
type NodeID int32

// Message is a frame payload. BitLen reports the payload size in bits and
// is charged against the per-edge per-round budget.
type Message interface {
	BitLen() int
}

// Proc is the per-node protocol logic. Implementations must confine
// themselves to their own state and the provided Context: Procs of
// different nodes run concurrently within a round.
type Proc interface {
	// PhaseStart is invoked once at the beginning of every phase, before
	// any delivery of that phase.
	PhaseStart(ctx *Context)
	// Recv is invoked once per frame delivered to this node, in increasing
	// order of sender within a round.
	Recv(ctx *Context, from NodeID, msg Message)
}

// ErrRoundLimit is returned by RunPhase when Options.MaxRounds is exceeded
// (the deterministic running-time bound wrapper of Section 4.1).
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// Options configures a Network.
type Options struct {
	// Seed drives all per-node randomness (deterministically split).
	Seed int64
	// FrameBits overrides the per-message budget; 0 means the default
	// B(n) = 4⌈log₂(n+1)⌉ + 16.
	FrameBits int
	// Unbounded disables frame-size enforcement (the LOCAL model of §3).
	// Oversized frames are still recorded in Metrics.MaxFrameBits.
	Unbounded bool
	// MaxRounds, if positive, bounds the total rounds across all phases.
	MaxRounds int
	// Parallelism bounds worker goroutines per round; 0 means GOMAXPROCS.
	Parallelism int
	// Engine selects the executor (default EngineSharded). Ignored when
	// Async is set: the asynchronous executor is its own engine.
	Engine Engine
	// Async runs phases on the asynchronous executor with Awerbuch's
	// α-synchronizer instead of the synchronous round loop (see async.go).
	// Protocol outputs are identical; the synchronizer overhead appears in
	// the Async* metrics.
	Async bool
	// AsyncMaxDelay bounds per-message delivery delay in virtual time
	// units (default 5). Only meaningful with Async.
	AsyncMaxDelay int
	// Flight, if non-nil, receives one flight.KindRound event per executed
	// round and one flight.KindPhase summary per phase. Recording is purely
	// observational — it reads metrics the executors maintain anyway and
	// never touches protocol state or any RNG stream — so outputs and
	// transcripts are identical with or without it.
	Flight *flight.Recorder
}

// PhaseMetrics aggregates per-phase costs.
type PhaseMetrics struct {
	Name   string
	Rounds int
	Frames int
	Bits   int
}

// Metrics aggregates whole-run costs.
type Metrics struct {
	Rounds       int // total rounds across phases (async: max node round)
	Frames       int // protocol frames delivered
	Bits         int // payload bits delivered
	MaxFrameBits int // largest single frame observed
	Phases       []PhaseMetrics

	// Asynchronous-executor extras (zero in synchronous runs): the
	// α-synchronizer's acknowledgement and safe-signal overheads, and the
	// largest virtual completion time of any phase.
	AsyncAcks        int
	AsyncSafes       int
	AsyncVirtualTime int64

	// Refinement post-pass outputs (zero unless the Solver ran
	// WithRefine): the best refined candidate's size and density, and the
	// total local-search moves across all candidates. Filled by the
	// public Solver's post-pass — the executors themselves never refine.
	RefinedSize    int
	RefinedDensity float64
	RefineMoves    int
}

// Network is a synchronous CONGEST-model executor over a fixed graph.
type Network struct {
	g     *graph.Graph
	opts  Options
	procs []Proc
	ctxs  []*Context
	ids   []int64 // protocol IDs: pseudorandom permutation of [0, n)

	// csr is the graph's shared CSR view: the engines index their flat
	// send/receive buffers with it directly — no private copies or aliases
	// of the offsets/targets arena are kept anywhere in this package.
	csr      *graph.CSR
	queues   []fifo  // one per directed edge, CSR-indexed
	edgeFrom []int32 // directed edge -> sender (legacy sync engine only)

	activeEdges []int32 // legacy: directed-edge indices with non-empty queues
	activeFlag  []bool

	inbox        [][]delivery // legacy: per destination, reused across rounds
	touched      []int32
	touchedFlag  []bool // legacy: per-destination dedupe bit for the round's inbox
	frameBits    int
	metrics      Metrics
	currentPhase *PhaseMetrics
	workers      int
	async        *asyncEngine   // non-nil when Options.Async is set
	sharded      *shardedEngine // non-nil when the sharded engine drives

	flight      *flight.Recorder // optional round/phase event sink
	flightPhase int32            // current phase's BeginPhase ordinal
}

type delivery struct {
	from NodeID
	msg  Message
}

// fifo is a per-directed-edge frame queue. The front frame lives in an
// inline slot — almost every edge holds at most one queued frame per
// round — and overflow (chunked pipelining) goes to a rarely-allocated
// side buffer, keeping the struct at three words across the 2M()-entry
// queue array. Invariant: one == nil ⇔ the queue is empty.
type fifo struct {
	one  Message
	rest *fifoRest
}

type fifoRest struct {
	buf  []Message
	head int
}

func (r *fifoRest) empty() bool { return r == nil || r.head >= len(r.buf) }

func (q *fifo) push(m Message) {
	if q.one == nil && q.rest.empty() {
		q.one = m
		return
	}
	if q.rest == nil {
		q.rest = &fifoRest{}
	}
	q.rest.buf = append(q.rest.buf, m)
}

func (q *fifo) empty() bool { return q.one == nil }

func (q *fifo) pop() Message {
	m := q.one
	if r := q.rest; !r.empty() {
		q.one = r.buf[r.head]
		r.buf[r.head] = nil
		r.head++
		if r.head == len(r.buf) {
			r.buf = r.buf[:0]
			r.head = 0
		}
	} else {
		q.one = nil
	}
	return m
}

// DefaultFrameBits returns the default CONGEST per-message budget for an
// n-node network: room for a constant number of IDs and counters.
func DefaultFrameBits(n int) int {
	return 4*bitsFor(n+1) + 16
}

// bitsFor returns ⌈log₂(x)⌉ for x ≥ 1 (bits needed to address x values).
func bitsFor(x int) int {
	if x <= 1 {
		return 1
	}
	return bits.Len(uint(x - 1))
}

// NewNetwork builds a Network over g. procFor constructs the Proc for each
// node index and receives that node's Context for registration.
func NewNetwork(g *graph.Graph, opts Options, procFor func(ctx *Context) Proc) *Network {
	n := g.N()
	csr := g.CSR()
	net := &Network{
		g:     g,
		opts:  opts,
		procs: make([]Proc, n),
		ctxs:  make([]*Context, n),
		ids:   permutedIDs(n, opts.Seed),
		csr:   csr,
	}
	net.frameBits = opts.FrameBits
	if net.frameBits == 0 {
		net.frameBits = DefaultFrameBits(n)
	}
	net.workers = opts.Parallelism
	if net.workers <= 0 {
		net.workers = runtime.GOMAXPROCS(0)
	}
	net.flight = opts.Flight
	total := csr.NumEdges()
	net.queues = make([]fifo, total)
	net.activeFlag = make([]bool, total)
	switch {
	case opts.Async:
		// The asynchronous executor pops the queues itself; no sync engine.
	case opts.Engine == EngineLegacy:
		net.inbox = make([][]delivery, n)
		net.touchedFlag = make([]bool, n)
		net.edgeFrom = make([]int32, total)
		for v := 0; v < n; v++ {
			for e := csr.Offsets[v]; e < csr.Offsets[v+1]; e++ {
				net.edgeFrom[e] = int32(v)
			}
		}
	default:
		net.sharded = newShardedEngine(net)
	}
	for v := 0; v < n; v++ {
		ctx := &Context{net: net, idx: NodeID(v)}
		if net.sharded != nil {
			ctx.shard = net.sharded.shardOf(int32(v))
		}
		net.ctxs[v] = ctx
		net.procs[v] = procFor(ctx)
	}
	if opts.Async {
		net.async = newAsyncEngine(net)
	}
	return net
}

// permutedIDs assigns each node a distinct O(log n)-bit protocol ID via a
// seeded permutation, so that ID order is uncorrelated with node index.
// It is rand.Perm's loop — the same Intn(i+1) draws and swaps — writing
// the IDs straight into int64s.
func permutedIDs(n int, seed int64) []int64 {
	rng := idRand(seed)
	ids := make([]int64, n)
	for i := range ids {
		j := rng.Intn(i + 1)
		ids[i] = ids[j]
		ids[j] = int64(i)
	}
	return ids
}

func idRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x1dfa_c0de)) }

// IDWalk is the pooled state of SampledIDs: the recorded draws and the
// tracked positions. The zero value is ready; an IDWalk is not safe for
// concurrent use.
type IDWalk struct {
	draws []uint32
	at    map[int]int // tracked position -> index into nodes
	dups  [][2]int    // (query, earlier query of the same node)
}

// SampledIDs returns PermutedIDs(n, seed)[v] for every v in nodes, in
// order, without building the permutation. It records permutedIDs' n
// draws J_i = Intn(i+1) — the same generator and call sequence — and
// walks them backwards from i = n−1 tracking only the queried positions:
// swap i writes ID i to position J_i and moves the old content of J_i to
// position i, so a query at J_i resolves to ID i, and a query at
// position i ≠ J_i moves to J_i. Tracked positions stay distinct, the
// walk stops once every query is resolved, and its cost is the n draws
// plus two bit tests per step.
//
// tracked must be an all-zero set over at least n bits; it is all-zero
// again on return.
func (w *IDWalk) SampledIDs(dst []int64, nodes []int32, n int, seed int64, tracked *bitset.Set) []int64 {
	ids := dst[:0]
	if cap(ids) < len(nodes) {
		ids = make([]int64, len(nodes))
	}
	ids = ids[:len(nodes)]
	if len(nodes) == 0 {
		return ids
	}
	if cap(w.draws) < n {
		w.draws = make([]uint32, n)
	}
	draws := w.draws[:n]
	rng := idRand(seed)
	for i := range draws {
		draws[i] = uint32(rng.Intn(i + 1))
	}

	if w.at == nil {
		w.at = make(map[int]int, len(nodes))
	}
	w.dups = w.dups[:0]
	for q, v := range nodes {
		if p := int(v); tracked.Contains(p) {
			w.dups = append(w.dups, [2]int{q, w.at[p]})
		} else {
			tracked.Add(p)
			w.at[p] = q
		}
	}
	for i := n - 1; len(w.at) > 0; i-- {
		j := int(draws[i])
		if tracked.Contains(j) {
			ids[w.at[j]] = int64(i)
			delete(w.at, j)
			tracked.Remove(j)
		}
		if j != i && tracked.Contains(i) {
			w.at[j] = w.at[i]
			delete(w.at, i)
			tracked.Remove(i)
			tracked.Add(j)
		}
	}
	for _, d := range w.dups {
		ids[d[0]] = ids[d[1]]
	}
	return ids
}

// Graph returns the underlying communication graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// Metrics returns a copy of the accumulated metrics.
func (net *Network) Metrics() Metrics {
	m := net.metrics
	m.Phases = append([]PhaseMetrics(nil), net.metrics.Phases...)
	return m
}

// FrameBits returns the per-message bit budget B(n).
func (net *Network) FrameBits() int { return net.frameBits }

// Rounds returns the total rounds executed so far.
func (net *Network) Rounds() int { return net.metrics.Rounds }

// Proc returns the Proc installed at node v (for result extraction).
func (net *Network) Proc(v int) Proc { return net.procs[v] }

// Context gives a Proc access to its node's identity, neighborhood,
// randomness, and outgoing links.
type Context struct {
	net *Network
	idx NodeID
	rng *rand.Rand
	// shard is the owning shard under the sharded engine (nil otherwise);
	// Send records edge activations directly on it, which is race-free
	// because a node's callbacks only ever run on its shard's worker.
	shard *shard
	// pendingActivations buffers directed edges whose queues became
	// non-empty during this node's processing slice of the round (legacy
	// and async engines); merged serially after the parallel section so
	// workers never share state.
	pendingActivations []int32
	// sends counts every frame ever enqueued by this node (the async
	// executor charges its outstanding-work ledger from it).
	sends int
}

// Index returns the node's dense index in [0, n).
func (c *Context) Index() NodeID { return c.idx }

// ID returns the node's protocol identifier (O(log n) bits, unique).
func (c *Context) ID() int64 { return c.net.ids[c.idx] }

// N returns the network size. (Standard assumption: nodes know n, needed
// to size O(log n)-bit fields.)
func (c *Context) N() int { return c.net.g.N() }

// Degree returns the node's degree.
func (c *Context) Degree() int { return c.net.g.Degree(int(c.idx)) }

// Neighbors returns the node's neighbor indices, sorted ascending. Shared;
// do not modify.
func (c *Context) Neighbors() []int32 { return c.net.g.Neighbors(int(c.idx)) }

// NeighborID returns the protocol ID of a neighbor (nodes know their
// neighbors' IDs after one implicit exchange, a standard assumption; the
// protocols in this repository only use it where the paper does).
func (c *Context) NeighborID(v NodeID) int64 { return c.net.ids[v] }

// Rand returns this node's private deterministic RNG: a counter-based
// stream addressed by (seed, node) alone — O(1) memory, no warm-up, and
// identical at any worker count and on every engine (see rng.go).
func (c *Context) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = NewNodeRand(c.net.opts.Seed, int64(c.idx))
	}
	return c.rng
}

// FrameBits returns the per-message budget, for sizing chunked streams.
func (c *Context) FrameBits() int { return c.net.frameBits }

// Round returns the current global round number (1-based during delivery).
func (c *Context) Round() int { return c.net.metrics.Rounds }

// Send enqueues msg on the directed edge to neighbor `to`. Panics if `to`
// is not a neighbor, or if the frame exceeds the bit budget while
// enforcement is on (both are protocol bugs).
func (c *Context) Send(to NodeID, msg Message) {
	net := c.net
	if b := msg.BitLen(); b > net.frameBits && !net.opts.Unbounded {
		panic(fmt.Sprintf("congest: frame of %d bits exceeds budget %d (n=%d): %T",
			b, net.frameBits, net.g.N(), msg))
	}
	edge := net.csr.EdgeTo(int32(c.idx), int32(to))
	if edge < 0 {
		panic(fmt.Sprintf("congest: node %d sending to non-neighbor %d", c.idx, to))
	}
	c.enqueue(edge, msg)
}

// enqueue pushes a validated frame onto a directed-edge queue and records
// the empty→non-empty activation with the owning engine.
func (c *Context) enqueue(edge int, msg Message) {
	net := c.net
	q := &net.queues[edge]
	wasEmpty := q.empty()
	q.push(msg)
	c.sends++
	if wasEmpty && !net.activeFlag[edge] {
		net.activeFlag[edge] = true
		if c.shard != nil {
			c.shard.activeEdges = append(c.shard.activeEdges, int32(edge))
		} else {
			c.pendingActivations = append(c.pendingActivations, int32(edge))
		}
	}
}

// Broadcast sends msg on every incident edge, skipping the per-send
// neighbor lookup (the directed edges of c are exactly its CSR range).
func (c *Context) Broadcast(msg Message) {
	net := c.net
	if b := msg.BitLen(); b > net.frameBits && !net.opts.Unbounded {
		panic(fmt.Sprintf("congest: frame of %d bits exceeds budget %d (n=%d): %T",
			b, net.frameBits, net.g.N(), msg))
	}
	for edge := net.csr.Offsets[c.idx]; edge < net.csr.Offsets[c.idx+1]; edge++ {
		c.enqueue(int(edge), msg)
	}
}

// RunPhase executes one protocol phase: PhaseStart on every node, then
// rounds until the network is quiescent. Returns ErrRoundLimit if the
// configured MaxRounds is exceeded.
func (net *Network) RunPhase(name string) error {
	return net.RunPhaseContext(context.Background(), name)
}

// RunPhaseContext is RunPhase with cooperative cancellation: the context is
// checked at every round boundary (and periodically inside the event-driven
// asynchronous executor), so a long phase stops within one round's worth of
// work of ctx being canceled. The returned error wraps ctx.Err(), so
// callers observe context.Canceled or context.DeadlineExceeded through
// errors.Is; metrics accumulated up to the interrupted round remain valid.
func (net *Network) RunPhaseContext(ctx context.Context, name string) error {
	if net.flight == nil {
		return net.runPhaseDispatch(ctx, name)
	}
	// Flight recording wraps the dispatch symmetrically for every engine:
	// the phase summary is the metrics delta across the phase plus the
	// live-heap delta at its boundaries (the only place heap is sampled —
	// per-round sampling would dwarf small rounds). On an interrupted phase
	// the partial deltas are still recorded; they are valid observations.
	net.flightPhase = net.flight.BeginPhase(name)
	before := net.metrics
	heap0 := flight.HeapBytes()
	err := net.runPhaseDispatch(ctx, name)
	net.flight.Record(flight.Event{
		Kind:      flight.KindPhase,
		Phase:     net.flightPhase,
		Round:     int64(net.metrics.Rounds - before.Rounds),
		Frames:    int64(net.metrics.Frames - before.Frames),
		Bytes:     int64(net.metrics.Bits-before.Bits) / 8,
		HeapDelta: flight.HeapBytes() - heap0,
	})
	return err
}

// runPhaseDispatch routes one phase to the configured executor.
func (net *Network) runPhaseDispatch(ctx context.Context, name string) error {
	if net.async != nil {
		return net.async.runPhase(ctx, name)
	}
	if net.sharded != nil {
		return net.sharded.runPhase(ctx, name)
	}
	return net.runPhaseLegacy(ctx, name)
}

// runPhaseLegacy is the reference per-round-scan executor's phase loop.
func (net *Network) runPhaseLegacy(ctx context.Context, name string) error {
	net.metrics.Phases = append(net.metrics.Phases, PhaseMetrics{Name: name})
	net.currentPhase = &net.metrics.Phases[len(net.metrics.Phases)-1]

	// Phase start: every node may initiate sends.
	net.parallelNodes(len(net.ctxs), func(v int) {
		net.procs[v].PhaseStart(net.ctxs[v])
	})
	net.mergeActivations(net.ctxs)

	for len(net.activeEdges) > 0 {
		if err := ctx.Err(); err != nil {
			return phaseInterrupted(name, net.metrics.Rounds, err)
		}
		if net.opts.MaxRounds > 0 && net.metrics.Rounds >= net.opts.MaxRounds {
			return fmt.Errorf("%w: %d rounds (phase %s)", ErrRoundLimit, net.metrics.Rounds, name)
		}
		net.stepRound()
	}
	net.currentPhase = nil
	return nil
}

// recordRound emits one KindRound flight event for the round that just
// completed; frontier is the active directed-edge count at the round's
// start, frames/bits the traffic it delivered. No-op without a recorder.
func (net *Network) recordRound(frontier, frames, bits int) {
	if net.flight == nil {
		return
	}
	net.flight.Record(flight.Event{
		Kind:     flight.KindRound,
		Phase:    net.flightPhase,
		Round:    int64(net.metrics.Rounds),
		Frontier: clampInt32(frontier),
		Frames:   int64(frames),
		Bytes:    int64(bits) / 8,
	})
}

// clampInt32 saturates an int into an int32 event field.
func clampInt32(x int) int32 {
	if x > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(x)
}

// phaseInterrupted wraps a context error observed at a round boundary.
func phaseInterrupted(name string, rounds int, err error) error {
	return fmt.Errorf("congest: phase %s interrupted after %d rounds: %w", name, rounds, err)
}

// stepRound delivers one frame per active directed edge, then lets every
// touched node process its inbox concurrently.
func (net *Network) stepRound() {
	net.metrics.Rounds++
	net.currentPhase.Rounds++

	edges := net.activeEdges
	net.activeEdges = net.activeEdges[:0]
	net.touched = net.touched[:0]

	frames, bitsTotal := 0, 0
	for _, e := range edges {
		q := &net.queues[e]
		msg := q.pop()
		if !q.empty() {
			net.activeEdges = append(net.activeEdges, e)
		} else {
			net.activeFlag[e] = false
		}
		from, to := int(net.edgeFrom[e]), int(net.csr.Targets[e])
		if !net.touchedFlag[to] {
			net.touchedFlag[to] = true
			net.touched = append(net.touched, int32(to))
		}
		net.inbox[to] = append(net.inbox[to], delivery{from: NodeID(from), msg: msg})
		frames++
		b := msg.BitLen()
		bitsTotal += b
		if b > net.metrics.MaxFrameBits {
			net.metrics.MaxFrameBits = b
		}
	}
	net.metrics.Frames += frames
	net.metrics.Bits += bitsTotal
	net.currentPhase.Frames += frames
	net.currentPhase.Bits += bitsTotal
	net.recordRound(len(edges), frames, bitsTotal)

	touched := net.touched
	net.parallelNodes(len(touched), func(i int) {
		v := int(touched[i])
		box := net.inbox[v]
		sort.Slice(box, func(a, b int) bool { return box[a].from < box[b].from })
		ctx := net.ctxs[v]
		proc := net.procs[v]
		for _, d := range box {
			proc.Recv(ctx, d.from, d.msg)
		}
		net.inbox[v] = box[:0]
		net.touchedFlag[v] = false
	})
	// Merge newly activated edges from the touched nodes' contexts.
	for _, v := range touched {
		net.mergeOne(net.ctxs[v])
	}
}

func (net *Network) mergeActivations(ctxs []*Context) {
	for _, ctx := range ctxs {
		net.mergeOne(ctx)
	}
}

func (net *Network) mergeOne(ctx *Context) {
	if len(ctx.pendingActivations) > 0 {
		net.activeEdges = append(net.activeEdges, ctx.pendingActivations...)
		ctx.pendingActivations = ctx.pendingActivations[:0]
	}
}

// parallelNodes runs fn(i) for i in [0, n) across the worker pool; inline
// when small to avoid goroutine overhead in tiny rounds.
func (net *Network) parallelNodes(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	workers := net.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// splitSeed derives independent per-node seeds (splitmix64 finalizer).
func splitSeed(seed, node int64) int64 {
	return int64(mix64(uint64(seed) + golden*uint64(node+1)))
}
