// Package flight is the per-round flight recorder: a fixed-size,
// non-blocking ring buffer of execution events the CONGEST engines emit
// as they run — one event per simulated round (round index, frontier
// size, frames delivered, payload bytes) plus one summary event per
// protocol phase (rounds, frames, bytes, live-heap delta across the
// phase). It is the observability substrate the paper's cost claim is
// checked against at runtime: O(D + polylog n) rounds with bounded
// per-edge bandwidth should be *visible*, not assumed.
//
// Design constraints, in priority order:
//
//  1. Recording must never block or slow an engine round beyond noise
//     (cmd/bench -flight pins the overhead under 2% at n=1e5). Record is
//     one atomic ticket increment, one CAS claim, a struct store, and a
//     release store — no locks, no allocation, no syscalls.
//  2. Recording must not perturb the determinism contract: the recorder
//     only observes; it touches no RNG stream and no protocol state, so
//     transcripts are byte-identical with the recorder on or off (the
//     golden-transcript suite runs both ways).
//  3. Accounting must be exact even under concurrent producers (a
//     SolveBatch sharing one recorder across runs): every event offered
//     to Record either lands in the ring or increments the dropped
//     counter, and landing in a full ring drops exactly the event it
//     overwrites — so Offered() == retained + Dropped() always holds.
//
// The ring keeps the most recent events: slot i holds the event with
// ticket t ≡ i (mod capacity), so old events are overwritten as new ones
// arrive and a post-run Snapshot returns the trailing window. Writers
// claim a slot with a single CAS; a claim that loses (another writer or a
// snapshot holds the slot) drops the new event rather than spinning, which
// is what makes Record obstruction-free and exactly accountable.
package flight

import (
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags an Event.
type Kind uint8

const (
	// KindRound is one simulated communication round (sharded: a
	// synchronous round; async: one increment of the maximum node round).
	KindRound Kind = iota + 1
	// KindPhase summarizes one completed protocol phase, including the
	// live-heap delta sampled at its boundaries. The sequential reference
	// engine, which simulates no rounds, emits only phase events.
	KindPhase
)

func (k Kind) String() string {
	switch k {
	case KindRound:
		return "round"
	case KindPhase:
		return "phase"
	}
	return "?"
}

// Event is one recorded observation. The struct is plain value data —
// fixed size, no pointers — so storing one is a handful of word moves.
type Event struct {
	// Kind tags the event; see KindRound and KindPhase.
	Kind Kind
	// Phase is the ordinal handed out by BeginPhase (resolve it to a name
	// with PhaseName), or -1 when the phase table was full.
	Phase int32
	// Round is the cumulative round index after this round (round events)
	// or the number of rounds the phase executed (phase events).
	Round int64
	// Frontier is the number of active directed edges at the start of the
	// round — the live message frontier. Phase events from the sequential
	// engine reuse it for the version's sample size |S|.
	Frontier int32
	// Frames and Bytes are the frames delivered and payload bytes carried
	// this round (round events) or across the phase (phase events).
	Frames int64
	Bytes  int64
	// HeapDelta is the live-heap byte delta across the phase, sampled at
	// phase boundaries via runtime/metrics (phase events only; per-round
	// heap sampling would cost more than the rounds it measures).
	HeapDelta int64
	// Seq is the global arrival ticket, assigned by Record; Snapshot
	// returns events in Seq order.
	Seq uint64
	// WallNS is the wall-clock offset from the recorder's epoch at which
	// Record accepted the event, stamped centrally so every engine gets
	// timeline data without engine changes. It is observation-only wall
	// time (flight is emission scope, not transcript scope — the
	// determinism analyzer permits clocks here) and never feeds back into
	// protocol state: transcripts stay byte-identical regardless.
	WallNS int64
}

// slot is one ring cell. state is a CAS-claimed exclusivity latch (0 free,
// 1 held by a writer or a snapshot); atomics synchronize the plain ev
// field, so the type is safe under the race detector by construction.
type slot struct {
	state atomic.Uint32
	full  bool
	ev    Event
}

// maxPhases bounds the phase-name table so a recorder shared across many
// runs cannot grow without bound; overflow phases record ordinal -1.
const maxPhases = 4096

// Recorder is the fixed-size event ring. Construct with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Recorder struct {
	mask    uint64
	slots   []slot
	epoch   time.Time
	offered atomic.Uint64
	dropped atomic.Uint64

	mu     sync.Mutex // phase-name table only (cold path: once per phase)
	phases []string
}

// DefaultCapacity is the event capacity New(0) gives: enough for the full
// round history of typical serving-sized solves.
const DefaultCapacity = 1024

// maxCapacity bounds a recorder's ring so request parameters cannot ask
// the server to allocate unbounded slots.
const maxCapacity = 1 << 20

// New builds a Recorder retaining the most recent capacity events
// (rounded up to a power of two; 0 means DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity > maxCapacity {
		capacity = maxCapacity
	}
	c := 1 << bits.Len(uint(capacity-1)) // next power of two ≥ capacity
	if c < capacity {
		c = capacity // capacity was already a huge power of two
	}
	return &Recorder{
		mask:  uint64(c - 1),
		slots: make([]slot, c),
		epoch: time.Now(),
	}
}

// Epoch returns the recorder's construction instant — the zero point of
// every event's WallNS offset. Trace assembly uses it to rebase flight
// timestamps onto a request trace's own epoch.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Capacity returns the ring's slot count.
func (r *Recorder) Capacity() int { return len(r.slots) }

// Record offers one event to the ring. It never blocks: the event either
// lands in its slot (possibly overwriting — and counting as dropped — the
// older event there) or, if the slot is momentarily held by another writer
// or a snapshot, is itself counted dropped. Exactly one of those happens
// per call, so Offered() == retained events + Dropped() at quiescence.
func (r *Recorder) Record(ev Event) {
	ev.WallNS = time.Since(r.epoch).Nanoseconds()
	t := r.offered.Add(1) - 1
	s := &r.slots[t&r.mask]
	if !s.state.CompareAndSwap(0, 1) {
		r.dropped.Add(1)
		return
	}
	if s.full {
		r.dropped.Add(1) // the overwritten event leaves the retained set
	}
	ev.Seq = t
	s.ev = ev
	s.full = true
	s.state.Store(0)
}

// Offered returns the total events ever offered to Record.
func (r *Recorder) Offered() uint64 { return r.offered.Load() }

// Dropped returns the events not retained in the ring: overwritten by
// newer events or rejected because their slot was momentarily held.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Snapshot copies the retained events out of the ring in arrival (Seq)
// order. It is safe concurrently with producers — a slot a writer holds at
// the instant of the scan is skipped, exactly as Record skips a held slot
// — but the natural call site is after the recorded run completes, where
// it observes every retained event.
func (r *Recorder) Snapshot() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		if !s.state.CompareAndSwap(0, 1) {
			continue
		}
		if s.full {
			out = append(out, s.ev)
		}
		s.state.Store(0)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Retained returns how many events are currently held in the ring.
func (r *Recorder) Retained() int {
	n := 0
	for i := range r.slots {
		s := &r.slots[i]
		if !s.state.CompareAndSwap(0, 1) {
			continue
		}
		if s.full {
			n++
		}
		s.state.Store(0)
	}
	return n
}

// BeginPhase registers a phase name and returns its ordinal for Event
// records, or -1 when the table is full (the events still record; only
// the name resolution degrades).
func (r *Recorder) BeginPhase(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.phases) >= maxPhases {
		return -1
	}
	r.phases = append(r.phases, name)
	return int32(len(r.phases) - 1)
}

// PhaseName resolves a phase ordinal recorded in an Event; unknown
// ordinals (including -1) resolve to "?".
func (r *Recorder) PhaseName(ord int32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ord < 0 || int(ord) >= len(r.phases) {
		return "?"
	}
	return r.phases[ord]
}

// Phases returns a copy of the registered phase-name table.
func (r *Recorder) Phases() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.phases...)
}

// heapMetric is the runtime/metrics gauge phase events sample: bytes
// occupied by live (and not-yet-swept) heap objects. Reading it does not
// stop the world; at one read per phase boundary the cost is noise.
const heapMetric = "/memory/classes/heap/objects:bytes"

// HeapBytes samples the current live-heap bytes. The two-sample-per-phase
// cadence (begin and end) is the deliberate granularity: per-round heap
// sampling would cost more than most rounds do.
func HeapBytes() int64 {
	sample := [1]metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(sample[0].Value.Uint64())
}
