// Package obs is the serving layer's metrics core: atomic counters and
// gauges, fixed-boundary log-bucketed latency histograms with
// p50/p99/p999 extraction, and a deterministic Prometheus-text
// exposition (`/metricsz` on the daemon). It is dependency-free and
// allocation-free on the hot path, extending the flight recorder's
// discipline (DESIGN.md §11) from solver rounds up to HTTP requests:
//
//  1. Recording never blocks. Counter.Add is one atomic add;
//     Histogram.Observe is a shift and two atomic adds (bucket and sum)
//     — no locks, no channels, no allocation. The obssafe nclint
//     analyzer enforces this shape statically.
//  2. Recording never perturbs outputs. Metrics observe wall time and
//     counts only; no RNG stream, no protocol state, so transcripts and
//     cache bytes are byte-identical with observability on or off (the
//     server obs suite pins this).
//  3. Accounting is exact. A histogram keeps no separate count: Count is
//     the sum of its bucket counts, so every snapshot's _count equals
//     its +Inf bucket, even mid-write. Its Sum is the exact total of
//     observed values at quiescence, and exposition republishes the
//     same atomics /statz reads — so the two surfaces reconcile exactly
//     at quiescence, in the style of the flight ring's Offered ==
//     Retained + Dropped invariant.
//
// Exposition is deterministic: families sort by name, series by label
// string, and every value formats canonically — a fixed event sequence
// yields fixed bytes, which is what makes /metricsz testable the same
// way transcripts are.
//
// All record-side methods are nil-receiver-safe no-ops, so call sites
// need no "is observability on" branches — a disabled server simply
// holds nil histograms, the same pattern the centralized replay uses
// for its nil *flightTrace.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are programming errors but are applied as
// given — exposition would expose the bug rather than mask it). Safe on
// a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instance within a family: exactly one of the
// value sources is set.
type series struct {
	labels  string // canonical label body, e.g. `endpoint="solve"` ("" for none)
	counter *Counter
	intFn   func() int64
	gaugeFn func() float64
	hist    *Histogram
}

// family is one metric name: a help string, a type, and its series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds registered metrics and writes the exposition.
// Registration happens once at construction time (server startup) and
// may panic on programmer error — conflicting types or duplicate series
// are bugs, not runtime conditions. Record-side calls go directly to the
// returned Counter/Histogram and never touch the registry's lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds one series under name, creating the family on first use.
func (r *Registry) register(name, labels, help string, kind metricKind, s *series) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	for _, existing := range f.series {
		if existing.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter series. labels is the
// canonical label body (`endpoint="solve"`) or "" for an unlabeled
// series. On a nil registry it returns nil, which records as a no-op.
func (r *Registry) NewCounter(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, labels, help, kindCounter, &series{counter: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for counters that already live as atomics
// elsewhere (the admission ledger), so /metricsz and /statz read the
// very same memory and can never disagree.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.register(name, labels, help, kindCounter, &series{intFn: fn})
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.register(name, labels, help, kindGauge, &series{gaugeFn: fn})
}

// NewHistogram registers and returns a latency histogram series. On a
// nil registry it returns nil, which observes as a no-op.
func (r *Registry) NewHistogram(name, labels, help string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.register(name, labels, help, kindHistogram, &series{hist: h})
	return h
}

// RegisterHistogram exposes an existing histogram as a series — for
// histograms that are live server state independent of exposition (the
// admission controller's executed-job histogram feeds Retry-After whether
// or not /metricsz is enabled). No-op on a nil registry.
func (r *Registry) RegisterHistogram(name, labels, help string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.register(name, labels, help, kindHistogram, &series{hist: h})
}

// WritePrometheus writes the exposition in Prometheus text format
// (version 0.0.4). Output is deterministic: families sorted by name,
// series by label string, values formatted canonically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, s.labels), s.counter.Value())
		return err
	case s.intFn != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, s.labels), s.intFn())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(f.name, s.labels), formatFloat(s.gaugeFn()))
		return err
	case s.hist != nil:
		return writeHistogram(w, f.name, s.labels, s.hist)
	}
	return nil
}

// writeHistogram emits the cumulative le-bucket series, _sum (seconds),
// and _count for one histogram from one snapshot. _count is the
// snapshot's bucket total, so it always equals the +Inf bucket, as
// Prometheus requires; _sum may lag the buckets by in-flight
// observations while producers keep observing.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	snap := h.Snapshot()
	cum := uint64(0)
	for i, c := range snap.Buckets {
		cum += c
		le := "+Inf"
		if i < numFiniteBounds {
			le = formatFloat(float64(BucketBoundNS(i)) / 1e9)
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(labels, `le="`+le+`"`)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", labels), formatFloat(float64(snap.SumNS)/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), snap.Count)
	return err
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatFloat is the canonical float formatting for exposition values:
// shortest round-trip representation, so a fixed value always prints
// fixed bytes.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
