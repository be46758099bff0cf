package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
	"nearclique/internal/flight"
	"nearclique/internal/obs"
	"nearclique/internal/report"
)

// maxRequestBytes bounds request bodies; a full /v1/batch of MaxBatch
// items is a few tens of KB, so 1 MiB is generous without letting a
// hostile client buffer arbitrary payloads.
const maxRequestBytes = 1 << 20

// batchWriteStall bounds the total time a worker may spend blocked
// writing a batch stream to a slow client before the stream is
// abandoned — a cumulative budget across all lines, so MaxBatch slow
// reads cannot multiply it.
const batchWriteStall = 30 * time.Second

// SolveRequest is the /v1/solve body (and the element type of
// /v1/batch). Omitted fields mean the solver defaults — the same
// defaults the cmd/nearclique flags document: engine auto, ε 0.25,
// expected sample 6, seed 1, one boosting version. Seed is a pointer
// because 0 is a legitimate seed (every other numeric field's zero is
// invalid or means "disabled", so plain zero-detection suffices there).
// timeout_ms caps the run (including queue wait); 0 falls back to the
// server's default timeout.
type SolveRequest struct {
	Graph          string  `json:"graph"`
	Engine         string  `json:"engine,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	ExpectedSample float64 `json:"expected_sample,omitempty"`
	P              float64 `json:"p,omitempty"`
	Seed           *int64  `json:"seed,omitempty"`
	Boost          int     `json:"boost,omitempty"`
	MinSize        int     `json:"min_size,omitempty"`
	MaxRounds      int     `json:"max_rounds,omitempty"`
	// Refine enables the refinement post-pass: "near", "near:0.2",
	// "quasi:0.6", optionally with ",moves=N,pool=N" budgets. Empty means
	// no refinement. Equivalent spellings canonicalize to one cache key.
	Refine    string `json:"refine,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Flight opts into per-round flight tracing: the response's flight
	// section carries up to this many trailing recorder events (capped at
	// maxFlightEvents). Traced requests bypass the result cache — their
	// bodies embed a per-run trace, so serving a frozen replay would lie —
	// and therefore always execute. 0 (the default) disables tracing.
	Flight int `json:"flight,omitempty"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// loadGraphRequest is the POST /v1/graphs body.
type loadGraphRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// solveParams is a SolveRequest with every default applied — the
// canonical parameter record the cache key is built from, so two
// requests that spell the same run differently (explicit defaults vs.
// omitted fields) share a cache entry.
type solveParams struct {
	engine    nearclique.Engine
	eps       float64
	sample    float64
	p         float64
	seed      int64
	boost     int
	minSize   int
	maxRounds int
	// refine is the canonical refinement spec string ("" = off) and
	// refineSpec its parsed form; the canonical string is what the cache
	// key embeds, so "quasi:0.60" and "quasi:0.6" share one entry.
	refine     string
	refineSpec nearclique.RefineSpec
	runOpts
}

// runOpts are the request options every executed endpoint shares.
// timeout caps the run; flight is the requested trailing-event window
// (0 = no tracing), and flightRec and trace are the per-request recorder
// and span timeline the miss path attaches when it is positive (nil
// otherwise — every recording call no-ops). None of them enters a cache
// key: traced requests skip the cache entirely, and a deadline decides
// whether a run completes, never what it computes.
type runOpts struct {
	timeout   time.Duration
	flight    int
	flightRec *flight.Recorder
	trace     *obs.Trace
}

// resolveRunOpts resolves timeout_ms (0 falls back to the server's
// default timeout) and flight (capped at maxFlightEvents).
func resolveRunOpts(cfg Config, timeoutMS int64, flightEvents int) (runOpts, error) {
	if timeoutMS < 0 {
		return runOpts{}, fmt.Errorf("server: negative timeout_ms %d", timeoutMS)
	}
	if flightEvents < 0 {
		return runOpts{}, fmt.Errorf("server: negative flight %d", flightEvents)
	}
	o := runOpts{timeout: cfg.DefaultTimeout, flight: min(flightEvents, maxFlightEvents)}
	if timeoutMS > 0 {
		o.timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return o, nil
}

// resolve canonicalizes the request. Validation beyond shape (ε range,
// boost ≥ 1, …) happens in solver(), which reuses the Solver's eager
// option validation verbatim.
func (req *SolveRequest) resolve(cfg Config) (solveParams, error) {
	p := solveParams{eps: 0.25, sample: 6, seed: 1, boost: 1}
	name := req.Engine
	if name == "" {
		name = "auto"
	}
	eng, err := nearclique.ParseEngine(name)
	if err != nil {
		return p, err
	}
	p.engine = eng
	if req.Epsilon != 0 {
		p.eps = req.Epsilon
	}
	if req.P != 0 && req.ExpectedSample != 0 {
		// Contradictory sampling spellings fail loudly, like unknown
		// fields do — silently dropping one would cache the result
		// under a key the client didn't think they asked for.
		return p, errors.New("server: specify at most one of p and expected_sample")
	}
	if req.P != 0 {
		p.p, p.sample = req.P, 0
	} else if req.ExpectedSample != 0 {
		p.sample = req.ExpectedSample
	}
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	if req.Boost != 0 {
		p.boost = req.Boost
	}
	p.minSize = req.MinSize
	p.maxRounds = req.MaxRounds
	if req.Refine != "" {
		spec, err := nearclique.ParseRefineSpec(req.Refine)
		if err != nil {
			return p, err
		}
		p.refineSpec = spec
		p.refine = spec.String()
	}
	p.runOpts, err = resolveRunOpts(cfg, req.TimeoutMS, req.Flight)
	return p, err
}

// maxFlightEvents caps the trailing-event window a request may ask for:
// enough to see every phase of a large solve, small enough that a trace
// can never balloon a response body past the cache-entry scale.
const maxFlightEvents = 512

// solver builds the per-request Solver.
func (p solveParams) solver(concurrency int) (*nearclique.Solver, error) {
	opts := []nearclique.Option{
		nearclique.WithEngine(p.engine),
		nearclique.WithEpsilon(p.eps),
		nearclique.WithSeed(p.seed),
		nearclique.WithVersions(p.boost),
		nearclique.WithMinSize(p.minSize),
		nearclique.WithMaxRounds(p.maxRounds),
	}
	if p.p != 0 {
		// != 0, not > 0: a negative p must reach WithSamplingProbability's
		// validator and fail blaming p, not expected_sample.
		opts = append(opts, nearclique.WithSamplingProbability(p.p))
	} else {
		opts = append(opts, nearclique.WithExpectedSample(p.sample))
	}
	if p.refine != "" {
		opts = append(opts, nearclique.WithRefine(p.refineSpec))
	}
	return p.newSolver(concurrency, opts)
}

// newSolver builds a request's Solver from its endpoint's options plus
// the two every endpoint shares: the request's flight recorder, and a
// per-run parallelism cap when several workers may run at once, so the
// workers split the machine instead of oversubscribing it. Worker counts
// never change outputs (the determinism suites pin this), only speed.
func (o *runOpts) newSolver(concurrency int, opts []nearclique.Option) (*nearclique.Solver, error) {
	if o.flightRec != nil {
		opts = append(opts, nearclique.WithFlightRecorder(o.flightRec))
	}
	if concurrency > 1 {
		opts = append(opts, nearclique.WithParallelism(max(1, runtime.GOMAXPROCS(0)/concurrency)))
	}
	return nearclique.New(opts...)
}

// cacheKey is the canonical cache key: the graph's content digest plus
// every resolved parameter that can influence the response body, in a
// fixed order with canonical float formatting ('g', shortest round-trip).
// timeout is deliberately excluded: only successful (complete) runs are
// cached, and for a deterministic solver the deadline can only decide
// whether a run completes, never what it computes. See DESIGN.md §9 for
// the full canonicalization rules.
func cacheKey(digest string, p solveParams) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return digest +
		"|eng=" + p.engine.String() +
		"|eps=" + f(p.eps) +
		"|s=" + f(p.sample) +
		"|p=" + f(p.p) +
		"|seed=" + strconv.FormatInt(p.seed, 10) +
		"|boost=" + strconv.Itoa(p.boost) +
		"|min=" + strconv.Itoa(p.minSize) +
		"|rounds=" + strconv.Itoa(p.maxRounds) +
		"|refine=" + p.refine
}

// outcome is one executed run, ready to write: the marshaled record body,
// the HTTP status, whether the body may populate the cache (only
// complete, error-free runs are cacheable), plus the raw cost facts the
// post-run bookkeeping needs — cost-model training and the /statz
// flight aggregate — without re-parsing the body.
type outcome struct {
	body      []byte
	status    int
	cacheable bool

	wallNS       int64
	rounds       int64
	frames       int64
	payloadBytes int64
	flight       *report.FlightSample
}

// engineRun is an endpoint's half of one executed request; execute is
// the other half, the same for every endpoint.
type engineRun struct {
	opts runOpts // as the cache lookup left them
	span string  // the engine span and its phase spans' prefix: "solve" or "count"
	feat costmodel.Features
	// call runs the engine on the worker goroutine; record renders the
	// finished call with the request's flight sample and trace attached
	// and fills the outcome's rounds, frames and payloadBytes; panicked
	// renders the line a panic leaves.
	call     func(ctx context.Context) error
	record   func(wall time.Duration, err error, fs *report.FlightSample, tr *report.Trace) (any, outcome)
	panicked func(wall time.Duration, err error) []byte
}

// execute runs one request's engine call on the calling (worker)
// goroutine and renders its outcome. Cancellation and deadline errors
// surface from the engine as wrapped context errors with valid partial
// metrics; the partial record still ships, mirroring cmd/nearclique -json.
//
// execute is also the one panic barrier. Runs execute on pool workers,
// outside net/http's per-request recovery, so a panic reachable through
// one request (an engine bug on one loaded graph) would otherwise kill
// the daemon; instead it costs its own request a 500, whose line carries
// the wall time actually burned. The panicked run still counts as one of
// its graph's solves, so /statz keeps misses == executed solves.
func (s *Server) execute(ctx context.Context, ent *entry, run engineRun) (out outcome) {
	o := &run.opts
	start := time.Now()
	defer ent.solves.Add(1)
	defer func() {
		if r := recover(); r != nil {
			out = outcome{
				body:   run.panicked(time.Since(start), fmt.Errorf("server: internal panic: %v", r)),
				status: http.StatusInternalServerError,
			}
		}
	}()
	if s.testHookBeforeSolve != nil {
		s.testHookBeforeSolve()
	}
	callStart := time.Now()
	err := run.call(ctx)
	callEnd := time.Now()
	wall := callEnd.Sub(callStart)
	var fs *report.FlightSample
	if o.flightRec != nil {
		fs = report.FlightFromRecorder(o.flightRec, o.flight)
	}
	var tr *report.Trace
	if o.trace != nil {
		tr = new(report.Trace) // filled once the commit span below closes
	}
	rec, out := run.record(wall, err, fs, tr)
	if o.trace != nil {
		// The span clock: engine boundaries from this goroutine's clock,
		// per-phase sub-spans rebased from the flight recorder's
		// wall-stamped phase events, and commit covering the record
		// assembly just done. The trace rides inside the body, so it must
		// be complete before Marshal — response writing itself is the one
		// step no in-body span can cover.
		o.trace.Span(run.span, callStart, callEnd)
		addPhaseSpans(o.trace, run.span, o.flightRec, fs, o.trace.Since(callStart))
		o.trace.Span("commit", callEnd, time.Now())
		*tr = wireTrace(o.trace)
	}
	body, merr := json.Marshal(rec)
	if merr != nil {
		return outcome{body: []byte(`{"error":"response encoding failed"}` + "\n"), status: http.StatusInternalServerError}
	}
	out.body, out.status, out.cacheable = append(body, '\n'), runStatus(err), err == nil
	out.wallNS, out.flight = wall.Nanoseconds(), fs
	return out
}

// runStatus maps an engine error to its HTTP status.
func runStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nobody observes this status.
		return 499
	default:
		// Algorithmic aborts (round limit, component cap, a shadow arena
		// budget) and validation the engine itself surfaces: the request
		// was well-formed but this configuration cannot complete.
		return http.StatusUnprocessableEntity
	}
}

// addPhaseSpans derives per-phase sub-spans ("<prefix>/<phase>") from the
// flight sample's wall-stamped phase events; prefix is the enclosing
// span's name ("solve" or "count"). A phase event is recorded at
// phase end, so phase k spans from the previous phase's end (the solve
// start for the first) to its own event timestamp; event offsets are
// rebased from the recorder's epoch onto the trace's. A ring that
// dropped or truncated events yields a correspondingly partial timeline
// — observation degrades, never lies.
func addPhaseSpans(tr *obs.Trace, prefix string, rec *flight.Recorder, sample *report.FlightSample, solveStartNS int64) {
	if tr == nil || rec == nil || sample == nil {
		return
	}
	base := tr.Since(rec.Epoch())
	prev := solveStartNS
	for _, ev := range sample.Events {
		if ev.Kind != flight.KindPhase.String() {
			continue
		}
		end := base + ev.WallNS
		tr.Add(prefix+"/"+ev.Phase, prev, end-prev)
		prev = end
	}
}

// wireTrace converts a trace to its wire form for the response body.
func wireTrace(tr *obs.Trace) report.Trace {
	spans := tr.Spans()
	out := report.Trace{TraceID: tr.ID(), Spans: make([]report.TraceSpan, len(spans))}
	for i, sp := range spans {
		out.Spans[i] = report.TraceSpan{Name: sp.Name, StartNS: sp.StartNS, DurNS: sp.DurNS}
	}
	return out
}

// admitRun pushes one priced job through admission control and waits for
// it — the shared admission path under /v1/solve and /v1/count. Requests
// the cost model reliably prices under CheapSolveNS take the fast path:
// they run inline on this goroutine (behind a bounded semaphore) instead
// of waiting behind expensive queued work — priced admission's payoff.
// Everything else queues on the worker pool. The deadline clock starts
// here — before the queue — so backpressure counts against the request's
// budget and a queued request whose client gave up costs at most one
// ctx.Err check when it reaches a worker.
func (s *Server) admitRun(ctx context.Context, timeout time.Duration, tr *obs.Trace, feat costmodel.Features, run func(context.Context) outcome) (outcome, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	submitted := time.Now()
	if s.cheapPredicted(feat) && s.admit.tryBypass() {
		// The fast path's wait is ~0 by construction; observing it keeps
		// the wait histogram an honest distribution over all accepted
		// jobs, not just the queued subset.
		s.observeWait(tr, submitted)
		start := time.Now()
		out := run(ctx)
		s.admit.endBypass(time.Since(start))
		return out, nil
	}
	var out outcome
	done := make(chan struct{})
	if err := s.admit.submit(func() {
		s.observeWait(tr, submitted)
		out = run(ctx)
	}, func() { close(done) }); err != nil {
		return outcome{}, err
	}
	<-done
	return out, nil
}

// observeWait records the admission wait — submit to execution start — in
// the wait histogram and, for traced requests, as the admission-wait
// span. Runs on the worker goroutine at job start (or inline on the fast
// path, where the wait is the bypass check itself).
func (s *Server) observeWait(tr *obs.Trace, submitted time.Time) {
	now := time.Now()
	s.metrics.wait.Observe(now.Sub(submitted))
	tr.Span("admission-wait", submitted, now)
}

// cheapPredicted reports whether the cost model reliably prices this
// request under the fast-path threshold. Unreliable predictions (too few
// honest samples) never qualify, so a fresh server queues everything.
func (s *Server) cheapPredicted(f costmodel.Features) bool {
	if s.cfg.CheapSolveNS <= 0 {
		return false
	}
	pred := s.cost.Predict(f)
	return pred.Reliable() && pred.NS <= float64(s.cfg.CheapSolveNS)
}

// newRun builds the request's Solver — around its flight recorder, when
// the miss path attached one — and binds it to g. The record is the
// shared report.Run schema; a panic leaves a bare Run carrying the error.
func (p *solveParams) newRun(concurrency int, g *nearclique.Graph) (engineRun, error) {
	solver, err := p.solver(concurrency)
	if err != nil {
		return engineRun{}, err
	}
	engine := p.engine.String()
	var res *nearclique.Result
	return engineRun{
		opts: p.runOpts,
		span: "solve",
		feat: p.features(g),
		call: func(ctx context.Context) (err error) {
			res, err = solver.Solve(ctx, g)
			return err
		},
		record: func(wall time.Duration, err error, fs *report.FlightSample, tr *report.Trace) (any, outcome) {
			rec := report.FromResult(engine, g, res, wall, err)
			rec.Flight, rec.Trace = fs, tr
			return &rec, outcome{rounds: int64(rec.Rounds), frames: int64(rec.Frames), payloadBytes: int64(rec.PayloadBytes)}
		},
		panicked: func(wall time.Duration, err error) []byte { return errorRunLine(engine, wall, err) },
	}, nil
}

// features assembles the cost-model features for a resolved request on
// graph g. engine=auto runs the sequential replay, so it is priced and
// trained as "seq".
func (p *solveParams) features(g *nearclique.Graph) costmodel.Features {
	engine := p.engine
	if engine == nearclique.EngineAuto {
		engine = nearclique.EngineSequential
	}
	sample := p.sample
	if p.p > 0 {
		sample = p.p * float64(g.N())
	}
	return costmodel.Features{
		Engine:   engine.String(),
		N:        g.N(),
		M:        g.M(),
		Epsilon:  p.eps,
		Sample:   sample,
		Versions: p.boost,
		Refine:   p.refine != "",
	}
}

// finishSolve is the post-run bookkeeping every executed run shares, on
// the solve, batch and count paths alike: honest cost-model training
// (clean completed runs only — cache hits return before this point and
// failed or aborted runs are excluded, so replays and pathologies can
// never drag predicted costs), the /statz flight aggregate for traced
// runs, miss accounting, and the cache fill. Traced runs never fill the
// cache: their bodies embed a per-run trace.
func (s *Server) finishSolve(out outcome, feat costmodel.Features, ent *entry, key string, traced bool) {
	if out.cacheable {
		s.cost.Observe(feat, out.rounds, out.payloadBytes, out.wallNS)
	}
	if out.flight != nil {
		s.flights.merge(out.flight, out.rounds, out.frames, out.payloadBytes)
	}
	if s.cache.enabled() {
		s.cache.recordMiss()
		ent.misses.Add(1)
	}
	if !traced && out.cacheable {
		s.cache.put(key, out.body)
	}
}

// --- Handlers -----------------------------------------------------------

// observeRequest records one endpoint-labeled request latency; called
// via defer with the handler's entry instant.
func (s *Server) observeRequest(endpoint string, start time.Time) {
	s.metrics.requests[endpoint].Observe(time.Since(start))
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("solve", time.Now())
	var req SolveRequest
	if params, ent := acceptRun(s, w, r, &req); ent != nil {
		defer ent.release()
		s.serve(w, r, ent, cacheKey(ent.digest, params), &params.runOpts, func() (engineRun, error) {
			return params.newRun(s.cfg.Concurrency, ent.g)
		})
	}
}

// runRequest is a /v1/solve or /v1/count body: it names a registered
// graph and resolves to its endpoint's canonical params P.
type runRequest[P any] interface {
	graphName() string
	resolve(Config) (P, error)
}

func (req *SolveRequest) graphName() string { return req.Graph }

// acceptRun decodes a /v1/solve or /v1/count body into req, resolves it
// and acquires its graph. When it cannot, it answers 400 or 404 itself
// and returns a nil entry; otherwise the caller releases the entry.
func acceptRun[P any](s *Server, w http.ResponseWriter, r *http.Request, req runRequest[P]) (P, *entry) {
	var none P
	if err := decodeJSON(w, r, req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return none, nil
	}
	if req.graphName() == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: \"graph\" (a registered graph name) is required"))
		return none, nil
	}
	params, err := req.resolve(s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return none, nil
	}
	ent, err := s.reg.acquire(req.graphName())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return none, nil
	}
	return params, ent
}

// serve is the rest of the path every executed /v1/solve and /v1/count
// request shares once its endpoint has accepted it: trace opt-in, cache
// lookup, the endpoint's engine run (newRun builds it, or fails with
// 400), priced admission, the miss's bookkeeping and the response.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ent *entry, key string, o *runOpts, newRun func() (engineRun, error)) {
	if o.flight > 0 {
		// Trace epoch = handling start. The id goes out as a header on
		// every traced response — including error paths below — and the
		// span timeline rides in the body, which never touches the cache.
		o.trace = obs.NewTrace(s.nextTraceID())
		s.metrics.traces.Inc()
		w.Header().Set("X-Nearclique-Trace-Id", o.trace.ID())
	}
	if body, ok := s.lookup(ent, key, o); ok {
		writeRun(w, http.StatusOK, body, "hit")
		return
	}
	run, err := newRun()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.admitRun(r.Context(), o.timeout, o.trace, run.feat, func(ctx context.Context) outcome {
		return s.execute(ctx, ent, run)
	})
	if err != nil {
		// Shed before any work: not a cache miss — /statz keeps
		// misses == executed solves, so hit ratios stay meaningful
		// under overload.
		s.writeAdmissionError(w, err)
		return
	}
	s.finishSolve(out, run.feat, ent, key, o.flight > 0)
	writeRun(w, out.status, out.body, "miss")
}

// lookup is every request's cache stage. Only validated, completed runs
// populate the cache, so invalid parameters can never hit, and a hit
// returns before any Solver is built. Traced requests (flight > 0)
// bypass it — their bodies embed a per-run trace a frozen replay could
// not honestly carry — and get their flight recorder here instead.
func (s *Server) lookup(ent *entry, key string, o *runOpts) ([]byte, bool) {
	start := time.Now()
	if o.flight == 0 {
		if body, ok := s.cache.get(key); ok {
			ent.hits.Add(1)
			return body, true
		}
	}
	o.trace.Span("cache-lookup", start, time.Now())
	if o.flight > 0 {
		o.flightRec = flight.New(s.cfg.FlightCapacity)
	}
	return nil, false
}

// handleBatch streams one report.Run per request item as NDJSON, in
// request order. The whole batch is admitted as a single job — one queue
// slot, one worker — so a burst of batches backpressures exactly like a
// burst of solves. Items hit the same result cache as /v1/solve;
// per-item failures (unknown graph, abort, timeout) become in-band Run
// records with the error field set, keeping the stream aligned.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("batch", time.Now())
	var breq BatchRequest
	if err := decodeJSON(w, r, &breq); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: empty batch"))
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: batch of %d items exceeds the %d-item cap", len(breq.Requests), s.cfg.MaxBatch))
		return
	}

	// Resolve and validate every item up front: a malformed item fails
	// the whole batch with 400 before any work is admitted.
	type item struct {
		req    SolveRequest
		params solveParams
	}
	items := make([]item, len(breq.Requests))
	for i, req := range breq.Requests {
		if req.Graph == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch item %d: \"graph\" is required", i))
			return
		}
		params, err := req.resolve(s.cfg)
		if err == nil {
			_, err = params.solver(s.cfg.Concurrency)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch item %d: %w", i, err))
			return
		}
		items[i] = item{req: req, params: params}
	}

	// One trace id for the batch when any item opted into tracing; item
	// traces derive theirs from it ("<batch-id>.<index>"), so the header
	// joins the stream to every per-line trace section.
	var batchTraceID string
	for _, it := range items {
		if it.params.flight > 0 {
			batchTraceID = s.nextTraceID()
			break
		}
	}

	// Per-item deadlines are anchored here, at admission — the same
	// clock /v1/solve uses — so a full batch of slow items can hold a
	// worker for at most the longest single item budget, not their sum.
	admitted := time.Now()
	done := make(chan struct{})
	if err := s.admit.submit(func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if batchTraceID != "" {
			w.Header().Set("X-Nearclique-Trace-Id", batchTraceID)
		}
		// Unlike /v1/solve (whose body is written by the handler
		// goroutine after the job finishes), this stream is written by
		// the worker itself — so writes carry deadlines, or a client
		// reading at a trickle would pin the worker and defeat
		// admission control. The stall budget is cumulative across the
		// whole stream: healthy clients consume microseconds of it per
		// line, while a slow reader can hold the worker for at most
		// batchWriteStall total, not per item.
		rc := http.NewResponseController(w)
		// The deadline is absolute on the underlying connection and
		// net/http only re-arms it between requests when the server
		// has a WriteTimeout (ours has none): clear it on every exit
		// path or it would poison later keep-alive requests.
		defer rc.SetWriteDeadline(time.Time{})
		budget := batchWriteStall
		for i, it := range items {
			if r.Context().Err() != nil {
				return // client gone; stop burning the worker
			}
			if it.params.flight > 0 {
				it.params.trace = obs.NewTrace(fmt.Sprintf("%s.%d", batchTraceID, i))
				s.metrics.traces.Inc()
			}
			line := s.solveItem(r.Context(), admitted, it.req, it.params)
			wstart := time.Now()
			if err := rc.SetWriteDeadline(wstart.Add(budget)); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return
			}
			// ErrNotSupported (a wrapping middleware's writer, or a
			// test recorder) is an accepted degradation: the stream
			// still works, just without stall protection.
			if _, err := w.Write(line); err != nil {
				return // stalled or broken client; free the worker
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return
			}
			if budget -= time.Since(wstart); budget <= 0 {
				return // stall budget exhausted; abandon the stream
			}
		}
	}, func() { close(done) }); err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	<-done
}

// solveItem is the per-item half of handleBatch: the miss path of
// /v1/solve — cache lookup, the item's engine run and the miss's
// bookkeeping — run directly on the current (worker) goroutine, since the
// batch was admitted as a whole. admitted is the batch's admission
// instant; item deadlines count from it, so queue wait and earlier items
// spend the same budget they would on /v1/solve. itemStart is the item's
// span-clock zero: every line this function renders — executed, error,
// panic — carries wall_ns measured from it on one clock (cached lines
// are the deliberate exception: their wall_ns stays frozen at the first
// miss, the cache's byte-identity contract).
func (s *Server) solveItem(ctx context.Context, admitted time.Time, req SolveRequest, params solveParams) []byte {
	itemStart := time.Now()
	ent, err := s.reg.acquire(req.Graph)
	if err != nil {
		return errorRunLine(params.engine.String(), time.Since(itemStart), err)
	}
	defer ent.release()
	key := cacheKey(ent.digest, params)
	if body, ok := s.lookup(ent, key, &params.runOpts); ok {
		return body
	}
	run, err := params.newRun(s.cfg.Concurrency, ent.g)
	if err != nil {
		return errorRunLine(params.engine.String(), time.Since(itemStart), err)
	}
	if params.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, admitted.Add(params.timeout))
		defer cancel()
	}
	out := s.execute(ctx, ent, run)
	s.finishSolve(out, run.feat, ent, key, params.flight > 0)
	return out.body
}

// errorRunLine renders a failure as a bare Run line, so batch streams
// stay aligned with their request lists. wall is the service time the
// failing item actually consumed, on the same span clock as executed
// lines (TestBatchWallNSUnified).
func errorRunLine(engine string, wall time.Duration, err error) []byte {
	rec := report.Run{Engine: engine, Error: err.Error()}
	rec.WallNS = wall.Nanoseconds()
	body, _ := json.Marshal(rec)
	return append(body, '\n')
}

func (s *Server) handleGraphsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Graphs []report.GraphStats `json:"graphs"`
	}{s.reg.list()})
}

func (s *Server) handleGraphsLoad(w http.ResponseWriter, r *http.Request) {
	var req loadGraphRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: \"name\" and \"path\" are required"))
		return
	}
	st, err := s.reg.load(req.Name, req.Path)
	switch {
	case errors.Is(err, ErrGraphExists):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		// Unreadable path, oversized input, corrupt snapshot, …: the
		// request itself was malformed for this filesystem.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleGraphsUnload(w http.ResponseWriter, r *http.Request) {
	err := s.reg.unload(r.PathValue("name"))
	switch {
	case errors.Is(err, ErrGraphNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// --- Plumbing -----------------------------------------------------------

// decodeJSON strictly decodes a bounded request body: unknown fields are
// rejected so a typo'd parameter fails loudly instead of silently running
// with defaults (which the cache would then happily serve forever).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst interface{}) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	// Exactly one JSON value: trailing data means a concatenated or
	// garbled body, and half-processing it would cache a run the client
	// never meant to ask for.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("server: bad request body: trailing data after the JSON value")
	}
	return nil
}

func writeRun(w http.ResponseWriter, status int, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Nearclique-Cache", cache)
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeAdmissionError maps a shed to its status. A 429's Retry-After is
// computed, not hardcoded: the estimated time for the current queue to
// clear at the observed mean executed-job wall time (integer seconds per
// RFC 9110, floored at 1) — a deep queue honestly advises a longer
// back-off than an empty one.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.admit.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
