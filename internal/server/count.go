package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"nearclique"
	"nearclique/internal/costmodel"
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
	runOpts
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
	var err error
	p.runOpts, err = resolveRunOpts(cfg, req.TimeoutMS, req.Flight)
	return p, err
}

// solver builds the per-request counting Solver on the shadow engine.
// The estimator is bit-identical at any worker count (the shadow
// conformance suite pins this), so newSolver's cap only affects speed.
func (p countParams) solver(concurrency int) (*nearclique.Solver, error) {
	opts := []nearclique.Option{
		nearclique.WithEngine(nearclique.EngineShadow),
		nearclique.WithCliqueSize(p.k),
		nearclique.WithEpsilon(p.eps),
		nearclique.WithSamples(p.samples),
		nearclique.WithConfidence(p.confidence),
		nearclique.WithSeed(p.seed),
	}
	return p.newSolver(concurrency, opts)
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

func (req *CountRequest) graphName() string { return req.Graph }

// newRun builds the counting Solver and binds it to g — the counting twin
// of solveParams.newRun. It is priced as the "shadow" engine family, with
// the clique size and draw count that drive its work term
// (costmodel.Features.work). The estimator has no message rounds, so the
// outcome's rounds/frames carry leaves/hits, which is what the /statz
// flight aggregate and cost-model auxiliaries see.
func (p *countParams) newRun(concurrency int, g *nearclique.Graph) (engineRun, error) {
	solver, err := p.solver(concurrency)
	if err != nil {
		return engineRun{}, err
	}
	var res *nearclique.CountResult
	return engineRun{
		opts: p.runOpts,
		span: "count",
		feat: costmodel.Features{Engine: "shadow", N: g.N(), M: g.M(), Epsilon: p.eps, Sample: float64(p.samples), K: p.k},
		call: func(ctx context.Context) (err error) {
			res, err = solver.Count(ctx, g)
			return err
		},
		record: func(wall time.Duration, err error, fs *report.FlightSample, tr *report.Trace) (any, outcome) {
			rec := report.FromCount("shadow", g, res, wall, err)
			rec.Flight, rec.Trace = fs, tr
			return &rec, outcome{rounds: int64(rec.CliqueLeaves + rec.NearLeaves), frames: rec.CliqueHits + rec.NearHits}
		},
		panicked: func(wall time.Duration, err error) []byte {
			body, _ := json.Marshal(report.FromCount("shadow", g, nil, wall, err))
			return append(body, '\n')
		},
	}, nil
}

// handleCount serves POST /v1/count through the same stages as
// handleSolve — acceptRun, then serve — so the two endpoints can never
// disagree in /statz or /metricsz.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	defer s.observeRequest("count", time.Now())
	var req CountRequest
	if params, ent := acceptRun(s, w, r, &req); ent != nil {
		defer ent.release()
		s.serve(w, r, ent, countCacheKey(ent.digest, params), &params.runOpts, func() (engineRun, error) {
			return params.newRun(s.cfg.Concurrency, ent.g)
		})
	}
}
