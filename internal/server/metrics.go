package server

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"nearclique/internal/obs"
	"nearclique/internal/report"
)

// serverMetrics is the server's observability surface (DESIGN.md §14):
// request/admission/execution latency histograms plus read-time bridges
// onto the counters /statz already reports. The bridges are closures over
// the very same atomics Stats() reads, so /metricsz and /statz can never
// disagree — reconciliation is exact by construction, not by sampling.
//
// With observability disabled (Config.DisableMetrics) the registry and
// the per-endpoint histograms are nil and every record call no-ops via
// obs's nil-receiver contract. exec is the one exception: it is live
// server state either way, because the admission controller's Retry-After
// estimate is computed from its mean — serving behavior must not change
// with metrics on or off.
type serverMetrics struct {
	reg *obs.Registry

	// requests is the per-endpoint request latency, handler entry to
	// response written, keyed by endpoint label.
	requests map[string]*obs.Histogram

	// wait is time from admission submit to job start (fast-path jobs
	// observe their ~0 wait honestly); exec is executed-job wall time —
	// the ledger that replaced the admitter's ad-hoc sum/count pair.
	wait *obs.Histogram
	exec *obs.Histogram

	// traces counts requests that opted into span tracing.
	traces *obs.Counter
}

// endpoints are the request-latency labels, in /metricsz and /statz
// order.
var endpoints = []string{"solve", "batch", "count"}

// newServerMetrics builds the metrics surface. exec is always live (see
// type comment); everything else is nil when disabled.
func newServerMetrics(disabled bool) *serverMetrics {
	m := &serverMetrics{exec: &obs.Histogram{}}
	if disabled {
		return m
	}
	m.reg = obs.NewRegistry()
	m.requests = make(map[string]*obs.Histogram, len(endpoints))
	for _, ep := range endpoints {
		m.requests[ep] = m.reg.NewHistogram("nearclique_request_seconds", `endpoint="`+ep+`"`,
			"request latency by endpoint, handler entry to response written")
	}
	m.wait = m.reg.NewHistogram("nearclique_admission_wait_seconds", "",
		"time accepted jobs spent between admission and execution start")
	m.reg.RegisterHistogram("nearclique_job_exec_seconds", "",
		"executed solve-job wall time (pool and fast path; cache hits never appear)", m.exec)
	m.traces = m.reg.NewCounter("nearclique_traces_total", "",
		"requests that opted into span tracing via the flight parameter")
	return m
}

// bind registers the read-time bridges onto live server state. Called
// once from New, after the admitter/cache/registry exist.
func (m *serverMetrics) bind(s *Server) {
	if m.reg == nil {
		return
	}
	counter := func(name, help string, v *atomic.Int64) {
		m.reg.CounterFunc(name, "", help, v.Load)
	}
	counter("nearclique_admission_received_total", "admission attempts", &s.admit.received)
	counter("nearclique_admission_accepted_total", "jobs admitted (fast path included)", &s.admit.accepted)
	counter("nearclique_admission_rejected_total", "jobs shed queue-full (429)", &s.admit.rejected)
	counter("nearclique_admission_refused_total", "jobs refused while draining (503)", &s.admit.refused)
	counter("nearclique_admission_fastpath_total", "accepted jobs that bypassed the wait queue", &s.admit.fastPath)
	m.reg.GaugeFunc("nearclique_queue_depth", "", "jobs waiting in the admission queue",
		func() float64 { return float64(s.admit.queued()) })
	m.reg.GaugeFunc("nearclique_inflight_jobs", "", "jobs executing right now",
		func() float64 { return float64(s.admit.inFlight.Load()) })
	m.reg.GaugeFunc("nearclique_draining", "", "1 while the server is draining",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	// Cache counters go through one stats() snapshot per closure call —
	// exposition-time work, never on the request path.
	cacheStat := func(name, help string, pick func(report.CacheStats) int64) {
		m.reg.CounterFunc(name, "", help, func() int64 { return pick(s.cache.stats()) })
	}
	cacheStat("nearclique_cache_hits_total", "result-cache hits", func(c report.CacheStats) int64 { return c.Hits })
	cacheStat("nearclique_cache_misses_total", "result-cache misses (== executed solves)", func(c report.CacheStats) int64 { return c.Misses })
	cacheStat("nearclique_cache_evictions_total", "result-cache evictions", func(c report.CacheStats) int64 { return c.Evictions })
	m.reg.GaugeFunc("nearclique_cache_bytes", "", "result-cache bytes in use",
		func() float64 { return float64(s.cache.stats().Bytes) })
	m.reg.GaugeFunc("nearclique_cache_entries", "", "result-cache entries",
		func() float64 { return float64(s.cache.stats().Entries) })
	m.reg.GaugeFunc("nearclique_graphs_loaded", "", "graphs registered",
		func() float64 { return float64(len(s.reg.list())) })
}

// latencySection builds the /statz latency section from the same
// histograms /metricsz exposes. Endpoints with no traffic are omitted;
// order is fixed (solve, batch, count, job_exec) so the JSON is stable.
func (m *serverMetrics) latencySection() []report.EndpointLatency {
	var out []report.EndpointLatency
	add := func(name string, h *obs.Histogram) {
		if h == nil || h.Count() == 0 {
			return
		}
		snap := h.Snapshot()
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		out = append(out, report.EndpointLatency{
			Endpoint: name,
			Count:    snap.Count,
			MeanMS:   ms(snap.SumNS / int64(snap.Count)),
			P50MS:    ms(snap.QuantileNS(0.50)),
			P99MS:    ms(snap.QuantileNS(0.99)),
			P999MS:   ms(snap.QuantileNS(0.999)),
		})
	}
	for _, ep := range endpoints {
		add(ep, m.requests[ep])
	}
	add("job_exec", m.exec)
	return out
}

// handleMetricsz serves the Prometheus-text exposition. The route is only
// registered when observability is enabled, so a disabled server 404s.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// nextTraceID mints a per-request trace identifier: the server's start
// instant plus a process-monotonic sequence number. Unique within and
// across restarts of one host, and deliberately not in any cached body —
// trace-opted requests bypass the result cache entirely.
func (s *Server) nextTraceID() string {
	return fmt.Sprintf("%x-%x", uint64(s.start.UnixNano()), s.traceSeq.Add(1))
}
