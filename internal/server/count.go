package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
	"nearclique/internal/flight"
	"nearclique/internal/obs"
	"nearclique/internal/report"
)

// CountRequest is the /v1/count body: a Turán-shadow counting query on a
// registered graph (DESIGN.md §15). Omitted fields mean the counting
// defaults — k 4, ε 0.25, 4096 samples, confidence 0.99, seed 1 — the
// same defaults cmd/nearclique -count documents. ε shares the solve
// path's (0, 0.5) range because it resolves through the same solver
// option. Seed is a pointer for the same reason SolveRequest's is: 0 is
// a legitimate seed. timeout_ms and flight behave exactly as on
// /v1/solve (flight-traced requests bypass the result cache).
type CountRequest struct {
	Graph      string  `json:"graph"`
	K          int     `json:"k,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Samples    int     `json:"samples,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Seed       *int64  `json:"seed,omitempty"`
	TimeoutMS  int64   `json:"timeout_ms,omitempty"`
	Flight     int     `json:"flight,omitempty"`
}

// countParams is a CountRequest with every default applied — the
// canonical record countCacheKey is built from, mirroring solveParams.
type countParams struct {
	k          int
	eps        float64
	samples    int
	confidence float64
	seed       int64
	timeout    time.Duration
	// flight/flightRec/trace follow solveParams exactly: the window, the
	// per-request recorder, and the span timeline, none of which enter
	// the cache key because traced requests never touch the cache.
	flight    int
	flightRec *flight.Recorder
	trace     *obs.Trace
}

// resolve canonicalizes the request. Range validation (k, samples,
// confidence, ε) happens in solver(), which reuses the Solver's eager
// option validation verbatim — invalid parameters 400 before admission
// and can never populate or hit the cache.
func (req *CountRequest) resolve(cfg Config) (countParams, error) {
	p := countParams{k: 4, eps: 0.25, samples: 4096, confidence: 0.99, seed: 1}
	if req.K != 0 {
		p.k = req.K
	}
	if req.Epsilon != 0 {
		p.eps = req.Epsilon
	}
	if req.Samples != 0 {
		p.samples = req.Samples
	}
	if req.Confidence != 0 {
		p.confidence = req.Confidence
	}
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	if req.TimeoutMS < 0 {
		return p, fmt.Errorf("server: negative timeout_ms %d", req.TimeoutMS)
	}
	if req.TimeoutMS > 0 {
		p.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	} else {
		p.timeout = cfg.DefaultTimeout
	}
	if req.Flight < 0 {
		return p, fmt.Errorf("server: negative flight %d", req.Flight)
	}
	p.flight = req.Flight
	if p.flight > maxFlightEvents {
		p.flight = maxFlightEvents
	}
	return p, nil
}

// solver builds the per-request counting Solver on the shadow engine.
// Parallelism is capped under worker concurrency exactly like the solve
// path — the estimator is bit-identical at any worker count (the shadow
// conformance suite pins this), so the cap only affects speed.
func (p countParams) solver(concurrency int) (*nearclique.Solver, error) {
	opts := []nearclique.Option{
		nearclique.WithEngine(nearclique.EngineShadow),
		nearclique.WithCliqueSize(p.k),
		nearclique.WithEpsilon(p.eps),
		nearclique.WithSamples(p.samples),
		nearclique.WithConfidence(p.confidence),
		nearclique.WithSeed(p.seed),
	}
	if p.flightRec != nil {
		opts = append(opts, nearclique.WithFlightRecorder(p.flightRec))
	}
	if concurrency > 1 {
		per := maxParallelismPer(concurrency)
		opts = append(opts, nearclique.WithParallelism(per))
	}
	return nearclique.New(opts...)
}

// countCacheKey is the counting twin of cacheKey: the graph digest, a
// "count" family tag so solve and count entries can never alias, then
// every resolved parameter in fixed order with the same canonical float
// formatting ('g', shortest round-trip) — "0.10", "0.1", and "1e-1"
// share one entry. timeout is excluded for the same reason as on the
// solve key: only completed runs are cached and the estimator is
// deterministic, so a deadline decides whether, never what.
func countCacheKey(digest string, p countParams) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return digest +
		"|count" +
		"|k=" + strconv.Itoa(p.k) +
		"|eps=" + f(p.eps) +
		"|s=" + strconv.Itoa(p.samples) +
		"|conf=" + f(p.confidence) +
		"|seed=" + strconv.FormatInt(p.seed, 10)
}

// countFeatures assembles cost-model features for a counting request:
// the "shadow" engine family with the clique size and draw count that
// drive its work term (costmodel.Features.work).
func (s *Server) countFeatures(ent *entry, p countParams) costmodel.Features {
	return costmodel.Features{
		Engine:  "shadow",
		N:       ent.g.N(),
		M:       ent.g.M(),
		Epsilon: p.eps,
		Sample:  float64(p.samples),
		K:       p.k,
	}
}

// runCount executes one counting query on the calling goroutine and
// renders the CountRun schema — the counting twin of runSolve. The
// outcome's bookkeeping fields repurpose rounds/frames as leaves/hits
// (the estimator has no message rounds), which is what the /statz
// flight aggregate and cost-model auxiliaries see.
func (s *Server) runCount(ctx context.Context, solver *nearclique.Solver, p countParams, ent *entry) outcome {
	if s.testHookBeforeSolve != nil {
		s.testHookBeforeSolve()
	}
	start := time.Now()
	res, err := solver.Count(ctx, ent.g)
	countEnd := time.Now()
	ent.solves.Add(1)
	rec := report.FromCount("shadow", ent.g, res, countEnd.Sub(start), err)
	if p.flightRec != nil {
		rec.Flight = report.FlightFromRecorder(p.flightRec, p.flight)
	}
	if p.trace != nil {
		// Same span clock as runSolve: count boundaries from this
		// goroutine, per-phase sub-spans (count/shadow-build,
		// count/shadow-sample) rebased from the recorder's wall-stamped
		// phase events, commit covering record assembly.
		p.trace.Span("count", start, countEnd)
		addPhaseSpans(p.trace, "count", p.flightRec, rec.Flight, p.trace.Since(start))
		p.trace.Span("commit", countEnd, time.Now())
		rec.Trace = wireTrace(p.trace)
	}
	body, merr := json.Marshal(rec)
	if merr != nil {
		return outcome{body: []byte(`{"error":"response encoding failed"}` + "\n"), status: http.StatusInternalServerError}
	}
	body = append(body, '\n')
	status := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	default:
		// Validation failures surfaced from the estimator itself (the
		// handler prevalidates via New, so these are defensive) or a
		// shadow arena budget blow: well-formed request, uncountable
		// configuration.
		status = http.StatusUnprocessableEntity
	}
	return outcome{
		body: body, status: status, cacheable: err == nil,
		wallNS: rec.WallNS,
		rounds: int64(rec.CliqueLeaves + rec.NearLeaves),
		frames: rec.CliqueHits + rec.NearHits,
		flight: rec.Flight,
	}
}

// safeCount is runCount behind the same panic barrier as safeSolve: a
// panic reachable through one counting request costs that request a 500,
// never the daemon.
func (s *Server) safeCount(ctx context.Context, solver *nearclique.Solver, p countParams, ent *entry) (out outcome) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rec := report.FromCount("shadow", ent.g, nil, time.Since(start),
				fmt.Errorf("server: internal panic: %v", r))
			body, _ := json.Marshal(rec)
			out = outcome{body: append(body, '\n'), status: http.StatusInternalServerError}
		}
	}()
	return s.runCount(ctx, solver, p, ent)
}

// handleCount serves POST /v1/count, mirroring handleSolve stage for
// stage — decode, resolve, cache lookup keyed by canonical params, trace
// opt-in with cache bypass, priced admission through the shared
// admitRun path, honest cost-model training, miss accounting — so the
// two endpoints can never disagree in /statz or /metricsz.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("count", time.Now())
	var req CountRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Graph == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: \"graph\" (a registered graph name) is required"))
		return
	}
	params, err := req.resolve(s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ent, err := s.reg.acquire(req.Graph)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer ent.release()

	if params.flight > 0 {
		params.trace = obs.NewTrace(s.nextTraceID())
		s.metrics.traces.Inc()
		w.Header().Set("X-Nearclique-Trace-Id", params.trace.ID())
	}
	key := countCacheKey(ent.digest, params)
	lookupStart := time.Now()
	if params.flight == 0 {
		if body, ok := s.cache.get(key); ok {
			ent.hits.Add(1)
			writeRun(w, http.StatusOK, body, "hit")
			return
		}
	}
	params.trace.Span("cache-lookup", lookupStart, time.Now())
	if params.flight > 0 {
		params.flightRec = flight.New(s.cfg.FlightCapacity)
	}
	solver, err := params.solver(s.cfg.Concurrency)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	feat := s.countFeatures(ent, params)
	out, admitErr := s.admitRun(r.Context(), params.timeout, params.trace, feat, func(ctx context.Context) outcome {
		return s.safeCount(ctx, solver, params, ent)
	})
	if admitErr != nil {
		s.writeAdmissionError(w, admitErr)
		return
	}
	s.finishSolve(out, feat, ent, key, params.flight > 0)
	writeRun(w, out.status, out.body, "miss")
}
