// Package report defines the machine-readable result schema shared by the
// cmd/ tools: cmd/nearclique -json emits a Run per invocation and
// cmd/bench emits a list of Measurements. Both embed the same Cost block,
// so downstream tooling parses execution costs identically regardless of
// which tool produced them.
package report

import (
	"time"

	"nearclique/internal/core"
	"nearclique/internal/flight"
	"nearclique/internal/graph"
	"nearclique/internal/shadow"
)

// Cost is the execution-cost block shared by every emitted record.
// Simulator counters are zero for sequential runs (nothing is simulated).
type Cost struct {
	Rounds       int   `json:"rounds"`
	Frames       int   `json:"frames"`
	PayloadBytes int   `json:"payload_bytes"`
	WallNS       int64 `json:"wall_ns"`
}

// Candidate is one reported near-clique.
type Candidate struct {
	Label   int64   `json:"label"`
	Version int     `json:"version"`
	Size    int     `json:"size"`
	Density float64 `json:"density"`
	Members []int   `json:"members,omitempty"`
}

// RefinedCandidate is the refinement post-pass counterpart of one
// Candidate: the polished set plus the base shape it started from, so
// base-vs-refined quality reads off one record.
type RefinedCandidate struct {
	Label       int64   `json:"label"`
	Size        int     `json:"size"`
	Density     float64 `json:"density"`
	BaseSize    int     `json:"base_size"`
	BaseDensity float64 `json:"base_density"`
	SeedVertex  int     `json:"seed_vertex"`
	Moves       int     `json:"moves"`
	Improved    bool    `json:"improved"`
	Members     []int   `json:"members,omitempty"`
}

// Run is the record one solve over one graph emits: cmd/nearclique -json
// prints it and cmd/nearcliqued serves it from /v1/solve and /v1/batch.
// Error carries the failure while the rest of the record still reports
// whatever partial costs accumulated (e.g. a canceled run's rounds).
// GraphDigest is the stable content digest of the input
// (graph.Graph.Digest — the `.ncsr` snapshot checksum), so every result
// is attributable to an exact input. The record deliberately carries no
// cache marker: the daemon's result cache returns byte-identical bodies
// on hit and miss, and signals hits out-of-band (the X-Nearclique-Cache
// header and the ServerStats/GraphStats counters below).
type Run struct {
	Engine      string `json:"engine"`
	GraphDigest string `json:"graph_digest,omitempty"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Cost
	MaxFrameBits int         `json:"max_frame_bits,omitempty"`
	SampleSizes  []int       `json:"sample_sizes,omitempty"`
	MaxComponent int         `json:"max_component,omitempty"`
	Candidates   []Candidate `json:"candidates"`
	// Refinement post-pass fields, present only when the run refined:
	// Refine is the canonical spec, RefinedSize/RefinedDensity the best
	// refined candidate, RefineMoves the total local-search moves, and
	// Refined the per-candidate records aligned with Candidates.
	Refine         string             `json:"refine,omitempty"`
	RefinedSize    int                `json:"refined_size,omitempty"`
	RefinedDensity float64            `json:"refined_density,omitempty"`
	RefineMoves    int                `json:"refine_moves,omitempty"`
	Refined        []RefinedCandidate `json:"refined,omitempty"`
	// Flight is the run's flight-recorder sample: the trailing window of
	// per-round/per-phase events, present only when the caller attached a
	// recorder and asked for it (cmd/nearclique -trace; the server's
	// opt-in flight request parameter). The cost numbers above stay the
	// source of truth — Flight is the per-round breakdown behind them.
	Flight *FlightSample `json:"flight,omitempty"`
	// Trace is the request's span timeline (admission-wait → cache-lookup
	// → solve → per-phase → commit), present only under the same flight
	// opt-in — traced requests already bypass the result cache in both
	// directions, which is what keeps cached bodies byte-identical and
	// timestamp-free.
	Trace *Trace `json:"trace,omitempty"`
	Error string `json:"error,omitempty"`
}

// CountRun is the record one counting query emits: cmd/nearclique
// -count prints it under -json and cmd/nearcliqued serves it from
// /v1/count. The estimate fields mirror shadow.Result; the envelope
// (engine, digest, shape, Cost, Flight, Trace, Error) mirrors Run so
// downstream tooling joins solve and count records identically.
type CountRun struct {
	Engine      string `json:"engine"`
	GraphDigest string `json:"graph_digest,omitempty"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Cost
	K          int     `json:"k"`
	Epsilon    float64 `json:"epsilon"`
	Samples    int     `json:"samples"`
	Confidence float64 `json:"confidence"`

	Cliques         float64 `json:"cliques"`
	CliquesErrBound float64 `json:"cliques_err_bound"`
	CliqueHits      int64   `json:"clique_hits"`
	NearCliques     float64 `json:"near_cliques"`
	NearErrBound    float64 `json:"near_err_bound"`
	NearHits        int64   `json:"near_hits"`

	CliqueLeaves int     `json:"clique_leaves"`
	CliqueWeight float64 `json:"clique_weight"`
	NearLeaves   int     `json:"near_leaves"`
	NearWeight   float64 `json:"near_weight"`
	Exact        bool    `json:"exact"`

	Flight *FlightSample `json:"flight,omitempty"`
	Trace  *Trace        `json:"trace,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// FromCount assembles a CountRun from a counting outcome; res may be nil
// on failure, leaving only the envelope and the error.
func FromCount(engine string, g *graph.Graph, res *shadow.Result, wall time.Duration, err error) CountRun {
	r := CountRun{Engine: engine, GraphDigest: g.Digest(), N: g.N(), M: g.M()}
	r.WallNS = wall.Nanoseconds()
	if err != nil {
		r.Error = err.Error()
	}
	if res == nil {
		return r
	}
	r.K = res.K
	r.Epsilon = res.Epsilon
	r.Samples = res.Samples
	r.Confidence = res.Confidence
	r.Cliques = res.Cliques
	r.CliquesErrBound = res.CliquesErrBound
	r.CliqueHits = res.CliqueHits
	r.NearCliques = res.NearCliques
	r.NearErrBound = res.NearErrBound
	r.NearHits = res.NearHits
	r.CliqueLeaves = res.CliqueLeaves
	r.CliqueWeight = res.CliqueWeight
	r.NearLeaves = res.NearLeaves
	r.NearWeight = res.NearWeight
	r.Exact = res.Exact
	return r
}

// TraceSpan is one timed step of a request timeline, offsets relative to
// the trace epoch (the instant the server began handling the request).
type TraceSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Trace is the wire form of a request's span timeline. TraceID matches
// the response's X-Nearclique-Trace-Id header, so a body on disk and a
// log line at the edge join on one identifier.
type Trace struct {
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// FlightEvent is one flight-recorder observation in the wire schema:
// either one simulated round or one completed phase summary (Kind
// "round" | "phase"); see the flight package for field semantics.
type FlightEvent struct {
	Kind     string `json:"kind"`
	Phase    string `json:"phase"`
	Round    int64  `json:"round,omitempty"`
	Frontier int32  `json:"frontier,omitempty"`
	Frames   int64  `json:"frames,omitempty"`
	// Bytes is payload bytes, matching Cost.PayloadBytes granularity.
	Bytes     int64 `json:"payload_bytes,omitempty"`
	HeapDelta int64 `json:"heap_delta,omitempty"`
	// WallNS is the wall offset from the recorder's epoch at which the
	// event was recorded (observation-only; see flight.Event.WallNS).
	WallNS int64 `json:"wall_ns,omitempty"`
}

// FlightSample is a recorder snapshot: exact accounting totals plus the
// trailing event window (capped by the caller; Truncated reports how
// many retained events the cap cut).
type FlightSample struct {
	Capacity  int           `json:"capacity"`
	Offered   uint64        `json:"offered"`
	Dropped   uint64        `json:"dropped"`
	Truncated int           `json:"truncated,omitempty"`
	Events    []FlightEvent `json:"events"`
}

// FlightFromRecorder snapshots a recorder into the wire schema, keeping
// at most maxEvents of the most recent events (0 means all retained).
func FlightFromRecorder(rec *flight.Recorder, maxEvents int) *FlightSample {
	if rec == nil {
		return nil
	}
	evs := rec.Snapshot()
	s := &FlightSample{
		Capacity: rec.Capacity(),
		Offered:  rec.Offered(),
		Dropped:  rec.Dropped(),
	}
	if maxEvents > 0 && len(evs) > maxEvents {
		s.Truncated = len(evs) - maxEvents
		evs = evs[len(evs)-maxEvents:]
	}
	s.Events = make([]FlightEvent, len(evs))
	for i, ev := range evs {
		s.Events[i] = FlightEvent{
			Kind:      ev.Kind.String(),
			Phase:     rec.PhaseName(ev.Phase),
			Round:     ev.Round,
			Frontier:  ev.Frontier,
			Frames:    ev.Frames,
			Bytes:     ev.Bytes,
			HeapDelta: ev.HeapDelta,
			WallNS:    ev.WallNS,
		}
	}
	return s
}

// Measurement is the cmd/bench record: one timed workload on one engine,
// with the derived rates cmd/bench historically reported. HeapBytes is
// the runtime.ReadMemStats heap growth across the measured run (GC'd
// immediately before), so regressions in working-set size show up next to
// the wall-time ones.
type Measurement struct {
	Workload    string `json:"workload"`
	Engine      string `json:"engine"`
	GraphDigest string `json:"graph_digest,omitempty"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Cost
	HeapBytes    uint64  `json:"heap_bytes"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	MBytesPerSec float64 `json:"payload_mb_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocsPerRnd float64 `json:"allocs_per_round"`
	RecoveredPct float64 `json:"recovered_pct,omitempty"`
	// Batched ε-Search throughput (cmd/bench -search-batch rows only):
	// Searches full bisections over independent coin seeds, Probes the
	// total probe runs they issued, with throughput and the cached
	// search's advantage over per-probe sharded simulation derived.
	Searches       int     `json:"searches,omitempty"`
	Probes         int     `json:"probes,omitempty"`
	ProbesPerSec   float64 `json:"probes_per_sec,omitempty"`
	SeedsPerSec    float64 `json:"seeds_per_sec,omitempty"`
	FoundEps       float64 `json:"found_eps,omitempty"`
	SpeedupSharded float64 `json:"speedup_vs_sharded,omitempty"`
	// Counting-workload fields (cmd/bench -count rows only): the query
	// shape, the resulting estimates, and the sampling throughput.
	K             int     `json:"k,omitempty"`
	CountSamples  int     `json:"count_samples,omitempty"`
	Cliques       float64 `json:"cliques,omitempty"`
	NearCliques   float64 `json:"near_cliques,omitempty"`
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
}

// RefineMeasurement is the cmd/bench -refine record (BENCH_refine.json):
// base vs refined candidate quality on one planted-clique workload,
// aggregated over a grid of seeds. ImprovedPct is the fraction of seeds
// whose refined best candidate kept at least the base density while
// strictly growing in size or density — the quality axis the refinement
// subsystem is tracked by.
type RefineMeasurement struct {
	Workload           string  `json:"workload"`
	Engine             string  `json:"engine"`
	Refine             string  `json:"refine"`
	GraphDigest        string  `json:"graph_digest,omitempty"`
	N                  int     `json:"n"`
	M                  int     `json:"m"`
	Seeds              int     `json:"seeds"`
	ImprovedPct        float64 `json:"improved_pct"`
	MeanBaseSize       float64 `json:"mean_base_size"`
	MeanRefinedSize    float64 `json:"mean_refined_size"`
	MeanBaseDensity    float64 `json:"mean_base_density"`
	MeanRefinedDensity float64 `json:"mean_refined_density"`
	MeanMoves          float64 `json:"mean_moves"`
	BaseRecoveredPct   float64 `json:"base_recovered_pct,omitempty"`
	RecoveredPct       float64 `json:"recovered_pct,omitempty"`
	SolveWallNS        int64   `json:"solve_wall_ns"`
	RefineWallNS       int64   `json:"refine_wall_ns"`
}

// FlightMeasurement is the cmd/bench -flight record (BENCH_flight.json):
// one workload solved with the flight recorder detached and attached,
// best-of-k each, pinning the recorder's overhead. Transcript digests of
// the two runs must match — recording is observational by contract — and
// OverheadPct is the on-vs-off wall-time delta the <2% budget gates.
type FlightMeasurement struct {
	Workload      string  `json:"workload"`
	Engine        string  `json:"engine"`
	GraphDigest   string  `json:"graph_digest,omitempty"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Capacity      int     `json:"capacity"`
	OffWallNS     int64   `json:"off_wall_ns"`
	OnWallNS      int64   `json:"on_wall_ns"`
	OverheadPct   float64 `json:"overhead_pct"`
	Rounds        int64   `json:"rounds"`
	EventsOffered uint64  `json:"events_offered"`
	EventsDropped uint64  `json:"events_dropped"`
	DigestsMatch  bool    `json:"digests_match"`
}

// LoadMeasurement is the cmd/bench -load record (BENCH_graph.json): one
// graph-load measurement of one on-disk format, comparing the text
// edge-list parse path against the `.ncsr` snapshot-mmap path at equal
// graph shape. HeapBytes and Allocs come from runtime.ReadMemStats around
// the load; SpeedupVsText is wall-time relative to the "text" record of
// the same workload.
type LoadMeasurement struct {
	Workload      string  `json:"workload"`
	Format        string  `json:"format"` // "text" | "snap"
	GraphDigest   string  `json:"graph_digest,omitempty"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	FileBytes     int64   `json:"file_bytes"`
	WallNS        int64   `json:"wall_ns"`
	HeapBytes     uint64  `json:"heap_bytes"`
	Allocs        uint64  `json:"allocs"`
	MBPerSec      float64 `json:"file_mb_per_sec"`
	SpeedupVsText float64 `json:"speedup_vs_text,omitempty"`
}

// FromResult assembles a Run from a solve outcome. res may carry partial
// metrics when err is non-nil (abort and cancellation paths); a nil res
// yields a record with only the graph shape, the wall time, and the error.
func FromResult(engine string, g *graph.Graph, res *core.Result, wall time.Duration, err error) Run {
	r := Run{Engine: engine, GraphDigest: g.Digest(), N: g.N(), M: g.M()}
	r.WallNS = wall.Nanoseconds()
	if err != nil {
		r.Error = err.Error()
	}
	if res == nil {
		return r
	}
	r.Rounds = res.Metrics.Rounds
	r.Frames = res.Metrics.Frames
	r.PayloadBytes = res.Metrics.Bits / 8
	r.MaxFrameBits = res.Metrics.MaxFrameBits
	r.SampleSizes = res.SampleSizes
	r.MaxComponent = res.MaxComponent
	r.Candidates = make([]Candidate, 0, len(res.Candidates))
	for _, c := range res.Candidates {
		r.Candidates = append(r.Candidates, Candidate{
			Label:   c.Label,
			Version: c.Version,
			Size:    len(c.Members),
			Density: c.Density,
			Members: c.Members,
		})
	}
	if res.RefineSpec != "" {
		r.Refine = res.RefineSpec
		r.RefinedSize = res.Metrics.RefinedSize
		r.RefinedDensity = res.Metrics.RefinedDensity
		r.RefineMoves = res.Metrics.RefineMoves
		r.Refined = make([]RefinedCandidate, 0, len(res.Refined))
		for _, ref := range res.Refined {
			r.Refined = append(r.Refined, RefinedCandidate{
				Label:       ref.Label,
				Size:        len(ref.Members),
				Density:     ref.Density,
				BaseSize:    ref.BaseSize,
				BaseDensity: ref.BaseDensity,
				SeedVertex:  ref.SeedVertex,
				Moves:       ref.Moves,
				Improved:    ref.Improved,
				Members:     ref.Members,
			})
		}
	}
	return r
}

// --- Serving-side records (cmd/nearcliqued) -----------------------------

// ServerStats is the cmd/nearcliqued /statz record: a point-in-time view
// of the daemon's queue, cache, and per-graph serving counters. Like the
// rest of this package it is the stable machine-readable schema —
// monitoring scrapes parse it, so fields are only ever added.
type ServerStats struct {
	UptimeSec     float64 `json:"uptime_sec"`
	Version       string  `json:"version,omitempty"`
	GoVersion     string  `json:"go_version"`
	Draining      bool    `json:"draining"`
	Concurrency   int     `json:"concurrency"`
	QueueDepth    int     `json:"queue_depth"`    // jobs waiting, excluding running
	QueueCapacity int     `json:"queue_capacity"` // waiting-slot budget (429 beyond it)
	InFlight      int     `json:"in_flight"`      // jobs running right now
	// Admission ledger. The counters reconcile exactly on every path
	// (solve and batch alike): Received == Accepted + Rejected + Refused,
	// with Accepted including the fast-path jobs that bypassed the wait
	// queue. Cache hits never enter this ledger — they answer without
	// submitting a job.
	Received int64 `json:"received"`     // submission attempts since start
	Accepted int64 `json:"accepted"`     // jobs admitted since start
	Rejected int64 `json:"rejected_429"` // jobs refused queue-full
	Refused  int64 `json:"refused_503"`  // jobs refused while draining
	FastPath int64 `json:"fast_path"`    // accepted jobs that bypassed the queue (cheap predicted cost)
	// Executed-job wall-time aggregate: the basis of the computed
	// Retry-After. Only actually executed solves count — cached replays
	// would drag the mean toward zero.
	JobsDone      int64   `json:"jobs_done"`
	MeanJobMS     float64 `json:"mean_job_ms"`
	RetryAfterSec int     `json:"retry_after_sec"` // what a 429 would advise right now
	// Latency is the per-endpoint distribution section, extracted from
	// the same histograms /metricsz exposes — percentiles here and bucket
	// counts there reconcile exactly because they read one set of atomics.
	Latency   []EndpointLatency `json:"latency,omitempty"`
	Cache     CacheStats        `json:"cache"`
	Flight    *FlightStats      `json:"flight,omitempty"`
	CostModel *CostStats        `json:"cost_model,omitempty"`
	Graphs    []GraphStats      `json:"graphs"`
}

// EndpointLatency is one endpoint's request-latency distribution in the
// /statz latency section: exact count/sum plus the log-bucket
// percentiles (conservative by at most one factor-of-2 bucket width).
type EndpointLatency struct {
	Endpoint string  `json:"endpoint"`
	Count    uint64  `json:"count"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	P999MS   float64 `json:"p999_ms"`
}

// FlightStats is the /statz flight section: the aggregate over every
// traced solve (requests that opted in with the flight parameter) plus
// the trailing event window of the most recent one.
type FlightStats struct {
	SolvesTraced  int64         `json:"solves_traced"`
	EventsOffered uint64        `json:"events_offered"`
	EventsDropped uint64        `json:"events_dropped"`
	Rounds        int64         `json:"rounds"`
	Frames        int64         `json:"frames"`
	PayloadBytes  int64         `json:"payload_bytes"`
	Recent        []FlightEvent `json:"recent,omitempty"`
}

// CostEngine is one engine's fitted cost-model state as served from
// /statz: de-logged per-unit rates (see internal/costmodel).
type CostEngine struct {
	Engine       string  `json:"engine"`
	Samples      int64   `json:"samples"`
	NSPerWork    float64 `json:"ns_per_work"`
	WorkExponent float64 `json:"work_exponent,omitempty"`
	RoundsPerVer float64 `json:"rounds_per_version,omitempty"`
	BytesPerWork float64 `json:"bytes_per_work,omitempty"`
}

// CostStats is the /statz cost-model section.
type CostStats struct {
	Samples int64        `json:"samples"`
	Engines []CostEngine `json:"engines,omitempty"`
}

// CacheStats describes the daemon's deterministic result cache.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// ServeMeasurement is the cmd/loadgen record (BENCH_serve.json): one
// open-loop load scenario against a live daemon, reporting the served
// latency distribution and the shed rates. Latency percentiles come from
// the same log-bucket histogram class the server uses, so harness-side
// and server-side distributions are directly comparable. Offered follows
// the arrival schedule (open loop: arrivals do not wait for completions);
// Completed + Shed429 + Shed504 + Errors5xx + Failed == Offered.
type ServeMeasurement struct {
	Scenario string `json:"scenario"`
	Pattern  string `json:"pattern"` // "constant" | "ramp" | "burst"
	Mix      string `json:"mix"`     // request mix, e.g. "solve:8,batch:1,refine:1"
	// TargetRPS is the scenario's arrival rate (mean rate for ramp/burst).
	TargetRPS  float64 `json:"target_rps"`
	DurationMS int64   `json:"duration_ms"`
	Offered    int64   `json:"offered"`
	Completed  int64   `json:"completed"` // 2xx responses
	Shed429    int64   `json:"shed_429"`  // queue-full rejections
	Shed504    int64   `json:"shed_504"`  // deadline expiries
	Errors5xx  int64   `json:"errors_5xx"`
	Failed     int64   `json:"failed"` // transport-level failures
	ShedRate   float64 `json:"shed_rate"`
	Throughput float64 `json:"throughput_rps"` // completed per wall second
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	P999MS     float64 `json:"p999_ms"`
	MeanMS     float64 `json:"mean_ms"`
	// PredictedNS is the cost model's per-solve prediction for the
	// scenario's graph/params when reliable (the CI gate's p99 baseline).
	PredictedNS int64 `json:"predicted_ns,omitempty"`
}

// GraphStats describes one registered graph: identity (name, shape,
// content digest) plus its serving counters. GET /v1/graphs returns the
// same records, so listing and monitoring share one schema.
type GraphStats struct {
	Name         string `json:"name"`
	Path         string `json:"path,omitempty"`
	GraphDigest  string `json:"graph_digest"`
	N            int    `json:"n"`
	M            int    `json:"m"`
	LoadedAtUnix int64  `json:"loaded_at_unix"`
	Solves       int64  `json:"solves"`
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
}
