// Package costmodel fits a small per-request cost predictor from the
// measurements the flight recorder and the serving path accumulate, and
// answers the question admission control needs before a request runs:
// roughly how expensive will this solve be (wall time, rounds, payload
// bytes) on the engine that executes it.
//
// The model is deliberately tiny — per-engine log-space regressions and
// geometric means over normalized ratios — because it must be trained
// online from a few dozen honest samples, serialized into a flat JSON
// artifact a CI gate can diff, and evaluated in nanoseconds on the
// admission path:
//
//   - wall time scales with the total protocol work, which for λ boosting
//     versions over a graph with n nodes and m edges is proportional to
//     versions × (n + m + 1) — but not exactly linearly: past the cache
//     sizes the per-unit cost climbs, so the model fits an online
//     regression of log(ns) against log(work) per engine and predicts
//     exp(intercept + slope × log(work)). When the training samples have
//     no meaningful spread in work (a daemon serving one graph size), the
//     slope is pinned to 1 and the model degrades gracefully to the plain
//     geometric mean of ns/work;
//   - payload bytes scale the same way (zero on the sequential replay,
//     which simulates no messages);
//   - rounds do NOT scale with n + m — the paper's bound is O(D + polylog
//     n) per phase and the phase count is 13λ + 2 — so rounds are
//     normalized per boosting version instead.
//
// Log-space means make the estimator robust to the heavy right tail of
// wall-time noise: a single descheduled run shifts the geometric mean by
// a bounded factor instead of dominating an arithmetic one. Observations
// enter through Welford-style running means, so refitting is "every
// sample, incrementally" — there is no batch refit step to schedule.
//
// Honest-sample discipline is the whole game: only clean, actually
// executed solves may be observed. Cache hits replay a frozen response
// without doing work, and shed requests never run — feeding either into
// Observe would drag predictions toward zero and unprice admission. The
// server-side call sites enforce this; the invariant is pinned by tests.
package costmodel

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// minSamples is how many observations an engine needs before its
// predictions are trusted for admission pricing.
const minSamples = 8

// Features are the request-time facts the model predicts from. All of
// them are known before the solve runs: graph size from the registry
// snapshot, the rest from canonicalized request parameters.
type Features struct {
	// Engine is the canonical name of the engine that executes ("seq",
	// "sharded", "shadow"); "auto" is not a Features engine, since auto
	// runs the sequential replay, so callers pass "seq" for it.
	Engine string
	// N and M are the graph's node and undirected edge counts.
	N, M int
	// Epsilon and Sample are the run's ε and expected sample size. For
	// the counting engine ("shadow") Sample is the estimator draw count.
	Epsilon, Sample float64
	// Versions is the boosting parameter λ (≥ 1).
	Versions int
	// K is the clique size of a counting request (engine "shadow" only;
	// zero for solve traffic).
	K int
	// Refine reports whether the refinement post-pass runs.
	Refine bool
}

// work is the model's size normalizer: total protocol work across
// boosting versions. The +1 keeps degenerate empty graphs off zero.
// Counting requests (engine "shadow") do different work — one O(n + m)
// shadow construction plus Sample draws costing O(k²) pair probes each
// — so their normalizer adds the sampling term instead of multiplying
// by versions; the fitted exponent absorbs what the shape misses.
func (f Features) work() float64 {
	if f.Engine == "shadow" {
		k := f.K
		if k < 2 {
			k = 2
		}
		return float64(f.N+f.M+1) + f.Sample*float64(k*k)
	}
	v := f.Versions
	if v < 1 {
		v = 1
	}
	return float64(v) * float64(f.N+f.M+1)
}

// versions clamps λ for per-version normalization.
func (f Features) versions() float64 {
	if f.Versions < 1 {
		return 1
	}
	return float64(f.Versions)
}

// Prediction is the model's cost estimate for one request.
type Prediction struct {
	// NS is the predicted wall time in nanoseconds.
	NS float64 `json:"ns"`
	// Rounds is the predicted simulator round count (0 for seq).
	Rounds float64 `json:"rounds"`
	// Bytes is the predicted payload-byte volume (0 for seq).
	Bytes float64 `json:"bytes"`
	// Samples is how many observations back the estimate.
	Samples int64 `json:"samples"`
}

// Reliable reports whether the estimate rests on enough observations to
// price admission with.
func (p Prediction) Reliable() bool { return p.Samples >= minSamples }

// welford is a running mean with sample count (the variance term of the
// classical recurrence is dropped — the model only needs the mean, and
// keeping the state two floats keeps the JSON artifact trivially
// diffable).
type welford struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
}

func (w *welford) add(x float64) {
	w.Count++
	w.Mean += (x - w.Mean) / float64(w.Count)
}

// Slope guards for the fitted work exponent: outside [slopeMin, slopeMax]
// a fit is noise, not physics (sub-√ or worse-than-cubic scaling of a
// near-linear protocol), and below minSXX of spread in log(work) there is
// no size signal to fit a slope from at all — both cases pin the slope
// to 1, which reduces prediction to the geometric mean of ns/work.
const (
	slopeMin = 0.5
	slopeMax = 3.0
	minSXX   = 0.5
)

// loglog is an online simple linear regression in log space: running
// first moments and centered co-moments (Welford form, numerically
// stable) of x = log(work), y = log(ns). Five floats per stream keeps
// the JSON artifact diffable while letting the model learn the actual
// work exponent instead of assuming cost is linear in work.
type loglog struct {
	Count int64   `json:"count"`
	MeanX float64 `json:"mean_log_work"`
	MeanY float64 `json:"mean_log_ns"`
	SXX   float64 `json:"sxx"`
	SXY   float64 `json:"sxy"`
}

func (r *loglog) add(x, y float64) {
	r.Count++
	dx := x - r.MeanX
	r.MeanX += dx / float64(r.Count)
	r.MeanY += (y - r.MeanY) / float64(r.Count)
	// dx uses the pre-update mean, (x - MeanX) the post-update one —
	// the standard co-moment recurrence.
	r.SXX += dx * (x - r.MeanX)
	r.SXY += dx * (y - r.MeanY)
}

// slope is the fitted work exponent, pinned to 1 when the training data
// has no size spread or the fit leaves the plausible range.
func (r *loglog) slope() float64 {
	if r.Count < 2 || r.SXX < minSXX {
		return 1
	}
	b := r.SXY / r.SXX
	if b < slopeMin || b > slopeMax {
		return 1
	}
	return b
}

// predict returns the de-logged regression estimate at x = log(work).
func (r *loglog) predict(x float64) float64 {
	if r.Count == 0 {
		return 0
	}
	return math.Exp(r.MeanY + r.slope()*(x-r.MeanX))
}

// engineStats is the per-engine model state: log-log regressions for the
// two wall-time streams and geometric means for the two normalized cost
// ratios. RefineNS is kept separately so refined and unrefined traffic
// don't blur each other's wall costs.
type engineStats struct {
	NS              loglog  `json:"ns"`
	RefineNS        loglog  `json:"refine_ns"`
	LogRoundsPerVer welford `json:"log_rounds_per_version"`
	LogBytesPerWork welford `json:"log_bytes_per_work"`
}

// Model is the thread-safe online cost model. The zero value is NOT
// ready; construct with New or Load.
type Model struct {
	mu      sync.Mutex
	engines map[string]*engineStats
}

// New returns an empty model.
func New() *Model {
	return &Model{engines: make(map[string]*engineStats)}
}

// Observe trains the model with one honest measurement: a clean,
// actually executed solve. Callers MUST NOT feed cache hits, shed
// requests, or failed runs. Zero wallNS observations are ignored
// entirely; zero rounds/bytes (the sequential replay) skip only those
// terms.
func (m *Model) Observe(f Features, rounds, payloadBytes, wallNS int64) {
	if wallNS <= 0 || f.Engine == "" {
		return
	}
	work := f.work()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.engines[f.Engine]
	if st == nil {
		st = &engineStats{}
		m.engines[f.Engine] = st
	}
	if f.Refine {
		st.RefineNS.add(math.Log(work), math.Log(float64(wallNS)))
	} else {
		st.NS.add(math.Log(work), math.Log(float64(wallNS)))
	}
	if rounds > 0 {
		st.LogRoundsPerVer.add(math.Log(float64(rounds) / f.versions()))
	}
	if payloadBytes > 0 {
		st.LogBytesPerWork.add(math.Log(float64(payloadBytes) / work))
	}
}

// Predict estimates the cost of a request. A zero-sample prediction has
// Samples == 0 and zero costs; gate on Reliable before pricing with it.
func (m *Model) Predict(f Features) Prediction {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.engines[f.Engine]
	if st == nil {
		return Prediction{}
	}
	work := f.work()
	var p Prediction
	ns := &st.NS
	if f.Refine && st.RefineNS.Count > 0 {
		ns = &st.RefineNS
	}
	p.Samples = ns.Count
	p.NS = ns.predict(math.Log(work))
	if st.LogRoundsPerVer.Count > 0 {
		p.Rounds = math.Exp(st.LogRoundsPerVer.Mean) * f.versions()
	}
	if st.LogBytesPerWork.Count > 0 {
		p.Bytes = math.Exp(st.LogBytesPerWork.Mean) * work
	}
	return p
}

// Samples returns the total honest observations across engines.
func (m *Model) Samples() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, st := range m.engines {
		total += st.NS.Count + st.RefineNS.Count
	}
	return total
}

// EngineSummary is one engine's de-logged model state for reporting.
type EngineSummary struct {
	Engine    string  `json:"engine"`
	Samples   int64   `json:"samples"`
	NSPerWork float64 `json:"ns_per_work"`
	// WorkExponent is the fitted slope of log(ns) vs log(work); 1 when
	// the training data had no size spread to fit from.
	WorkExponent float64 `json:"work_exponent,omitempty"`
	RoundsPerVer float64 `json:"rounds_per_version,omitempty"`
	BytesPerWork float64 `json:"bytes_per_work,omitempty"`
}

// Summaries returns per-engine summaries sorted by engine name.
func (m *Model) Summaries() []EngineSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EngineSummary, 0, len(m.engines))
	for name, st := range m.engines {
		s := EngineSummary{Engine: name, Samples: st.NS.Count + st.RefineNS.Count}
		if st.NS.Count > 0 {
			s.NSPerWork = math.Exp(st.NS.MeanY - st.NS.MeanX)
			s.WorkExponent = st.NS.slope()
		}
		if st.LogRoundsPerVer.Count > 0 {
			s.RoundsPerVer = math.Exp(st.LogRoundsPerVer.Mean)
		}
		if st.LogBytesPerWork.Count > 0 {
			s.BytesPerWork = math.Exp(st.LogBytesPerWork.Mean)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Engine < out[j].Engine })
	return out
}

// fileFormat is the JSON artifact schema (COSTMODEL.json).
type fileFormat struct {
	Format  int                     `json:"format"`
	Engines map[string]*engineStats `json:"engines"`
}

// formatVersion guards the artifact schema; bump on incompatible change.
// 2: the ns/refine_ns streams became log-log regressions (fitted work
// exponent) instead of plain geometric work ratios.
const formatVersion = 2

// MarshalJSON serializes the model state (the COSTMODEL.json artifact).
func (m *Model) MarshalJSON() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return json.Marshal(fileFormat{Format: formatVersion, Engines: m.engines})
}

// UnmarshalJSON replaces the model state from a serialized artifact.
func (m *Model) UnmarshalJSON(data []byte) error {
	var f fileFormat
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("costmodel: %w", err)
	}
	if f.Format != formatVersion {
		return fmt.Errorf("costmodel: unsupported format %d (want %d)", f.Format, formatVersion)
	}
	if f.Engines == nil {
		return errors.New("costmodel: artifact has no engines section")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engines = f.Engines
	return nil
}
