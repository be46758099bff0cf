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
// The synchronous executor is the sharded flat-buffer engine (sharded.go;
// see DESIGN.md §5), which partitions nodes across a persistent worker
// pool and double-buffers rounds through per-edge delivery slots. It is
// bit-for-bit deterministic at any worker count. Options.Async runs the
// same protocols on the asynchronous executor instead (async.go), with
// identical outputs.
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
	"slices"

	"nearclique/internal/bitset"
	"nearclique/internal/flight"
	"nearclique/internal/graph"
)

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
	csr        *graph.CSR
	queues     []fifo // one per directed edge, CSR-indexed
	activeFlag []bool // sharded: directed edge is on its shard's active list

	frameBits    int
	metrics      Metrics
	currentPhase *PhaseMetrics
	workers      int
	async        *asyncEngine   // non-nil when Options.Async is set
	sharded      *shardedEngine // non-nil otherwise

	flight      *flight.Recorder // optional round/phase event sink
	flightPhase int32            // current phase's BeginPhase ordinal
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
	if !opts.Async {
		net.activeFlag = make([]bool, total)
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
	var s idStream
	s.reset(seed)
	ids := make([]int64, n)
	var draws [1024]uint32
	for lo := 0; lo < n; lo += len(draws) {
		js := draws[:min(len(draws), n-lo)]
		s.fill(js, lo)
		for k, j := range js {
			i := lo + k
			ids[i] = ids[j]
			ids[j] = int64(i)
		}
	}
	return ids
}

func idSource(seed int64) rand.Source { return rand.NewSource(seed ^ 0x1dfa_c0de) }

// idDraw returns rand.New(src).Intn(n) for 0 < n < 2^31: the draw
// idStream.fill makes with the stream inline.
func idDraw(src interface{ Int63() int64 }, n int32) int32 {
	return idFinish(int32(src.Int63()>>32), n, src)
}

// idFinish finishes an Intn(n) draw whose first 31-bit value is v: the
// power-of-two mask, or v % n after Int31n's rejection loop, which
// redraws from src. Its bound 2^31−1 − 2^31 mod n is computed only for
// a v above 2^31−1−n, so a draw costs one division, not two.
func idFinish(v, n int32, src interface{ Int63() int64 }) int32 {
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > 1<<31-1-n {
		for bound := int32(1<<31 - 1 - (1<<31)%uint32(n)); v > bound; {
			v = int32(src.Int63() >> 32)
		}
	}
	return v % n
}

// The lags of math/rand's additive lagged-Fibonacci source: from its
// output k = idLag on, y_k = y_{k−idLag} + y_{k−idTap} mod 2^64.
const (
	idLag = 607
	idTap = 273
)

// idStream is idSource's output stream drawn inline: it holds idLag
// consecutive outputs and computes the next idLag in place once they are
// used, so a draw is a load, not an interface call into rand.Source.
type idStream struct {
	y [idLag]uint64
	i int // the next output's index in y
}

// reset sets s to the start of idSource(seed)'s stream: its first idLag
// Uint64 outputs, drawn from it.
func (s *idStream) reset(seed int64) {
	src := idSource(seed).(rand.Source64)
	for i := range s.y {
		s.y[i] = src.Uint64()
	}
	s.i = 0
}

// Int63 returns the stream's next output as rand.Source's Int63 does.
func (s *idStream) Int63() int64 {
	if s.i == idLag {
		s.advance()
	}
	y := s.y[s.i]
	s.i++
	return int64(y &^ (1 << 63))
}

// advance replaces outputs k … k+idLag−1 with the next idLag: output
// k+idLag+i adds y[i] to output k+idLag+i−idTap, which is still in y
// for i < idTap and already replaced after.
func (s *idStream) advance() {
	for i := 0; i < idTap; i++ {
		s.y[i] += s.y[i+idLag-idTap]
	}
	for i := idTap; i < idLag; i++ {
		s.y[i] += s.y[i-idTap]
	}
	s.i = 0
}

// fill sets out[i] to the draw Intn(lo+i+1), for each i in turn: the
// draws of rand.Perm's loop from i = lo on. The loop is idDraw's with
// the stream inline and the common case inline too: a draw at most
// 2^31−1−n for an n that is not a power of two is v % n.
func (s *idStream) fill(out []uint32, lo int) {
	for i := range out {
		n := int32(lo + i + 1)
		v := int32(s.Int63() >> 32)
		if v > 1<<31-1-n || n&(n-1) == 0 {
			v = idFinish(v, n, s)
		} else {
			v %= n
		}
		out[i] = uint32(v)
	}
}

// IDWalk is the pooled state of the backward ID walk: the recorded
// draws, the tracked positions and the walk's output. The zero value is
// ready; an IDWalk is not safe for concurrent use.
type IDWalk struct {
	stream idStream
	draws  []uint32
	at     map[int]int // tracked position -> index into nodes
	nodes  []int32
	ids    []int64
}

// Record records permutedIDs' n draws J_i = Intn(i+1) — the same
// generator and call sequence — for the next Walk. The draws depend on
// (n, seed) alone, never on which nodes Walk is later asked about.
func (w *IDWalk) Record(n int, seed int64) {
	if cap(w.draws) < n {
		w.draws = make([]uint32, n)
	}
	draws := w.draws[:n]
	w.stream.reset(seed)
	w.stream.fill(draws, 0)
	w.draws = draws
}

// Walk returns the nodes of set in ascending order and their IDs
// PermutedIDs(n, seed)[v], for the (n, seed) Record recorded last,
// without building the permutation. It walks the draws backwards from
// i = n−1 tracking only the queried positions: swap i writes ID i to
// position J_i and moves the old content of J_i to position i, so a
// query at J_i resolves to ID i, and a query at position i ≠ J_i moves
// to J_i. Tracked positions stay distinct, the walk stops once every
// query is resolved, and its cost is two bit tests per step.
//
// set, over n bits, holds the tracked positions during the walk and is
// all-zero on return. The returned slices are w's own until the next
// Walk.
func (w *IDWalk) Walk(set *bitset.Set) ([]int32, []int64) {
	w.nodes = w.nodes[:0]
	set.ForEach(func(v int) { w.nodes = append(w.nodes, int32(v)) })
	w.ids = slices.Grow(w.ids[:0], len(w.nodes))[:len(w.nodes)]
	if w.at == nil {
		w.at = make(map[int]int, len(w.nodes))
	}
	for q, v := range w.nodes {
		w.at[int(v)] = q
	}
	for i := len(w.draws) - 1; len(w.at) > 0; i-- {
		j := int(w.draws[i])
		if set.Contains(j) {
			w.ids[w.at[j]] = int64(i)
			delete(w.at, j)
			set.Remove(j)
		}
		if j != i && set.Contains(i) {
			w.at[j] = w.at[i]
			delete(w.at, i)
			set.Remove(i)
			set.Add(j)
		}
	}
	return w.nodes, w.ids
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
	// shard is the owning shard under the sharded engine (nil under async);
	// Send records edge activations directly on it, which is race-free
	// because a node's callbacks only ever run on its shard's worker.
	shard *shard
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
// the empty→non-empty activation with the owning shard. The asynchronous
// executor (no shard) schedules deliveries from the send count instead.
func (c *Context) enqueue(edge int, msg Message) {
	net := c.net
	q := &net.queues[edge]
	wasEmpty := q.empty()
	q.push(msg)
	c.sends++
	if c.shard != nil && wasEmpty && !net.activeFlag[edge] {
		net.activeFlag[edge] = true
		c.shard.activeEdges = append(c.shard.activeEdges, int32(edge))
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
	return net.sharded.runPhase(ctx, name)
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

// splitSeed derives independent per-node seeds (splitmix64 finalizer).
func splitSeed(seed, node int64) int64 {
	return int64(mix64(uint64(seed) + golden*uint64(node+1)))
}
