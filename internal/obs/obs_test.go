package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndex pins the bucket mapping at its boundaries: each finite
// bound is inclusive, the next nanosecond spills into the next bucket,
// and values past the last finite bound land in +Inf.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {histBaseNS, 0},
		{histBaseNS + 1, 1}, {2 * histBaseNS, 1}, {2*histBaseNS + 1, 2},
		{BucketBoundNS(10), 10}, {BucketBoundNS(10) + 1, 11},
		{BucketBoundNS(numFiniteBounds - 1), numFiniteBounds - 1},
		{BucketBoundNS(numFiniteBounds-1) + 1, numBuckets - 1},
		{1 << 62, numBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.ns); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
	// Every bucket's own bound maps into that bucket (inclusive upper).
	for i := 0; i < numFiniteBounds; i++ {
		if got := bucketIndex(BucketBoundNS(i)); got != i {
			t.Errorf("bound %d maps to bucket %d, want %d", BucketBoundNS(i), got, i)
		}
	}
}

// TestHistogramExactAccounting is the reconciliation invariant: after any
// observation sequence, Count == Σ bucket counts and SumNS is the exact
// total — the histogram analogue of the flight ring's
// Offered == Retained + Dropped.
func TestHistogramExactAccounting(t *testing.T) {
	h := &Histogram{}
	var wantSum int64
	var wantCount uint64
	for i := int64(0); i < 10_000; i++ {
		ns := (i * 7919) % (50 * int64(time.Millisecond))
		h.ObserveNS(ns)
		wantSum += ns
		wantCount++
	}
	snap := h.Snapshot()
	var bucketTotal uint64
	for _, c := range snap.Buckets {
		bucketTotal += c
	}
	if snap.Count != wantCount || bucketTotal != wantCount {
		t.Fatalf("count=%d bucketΣ=%d, want both %d", snap.Count, bucketTotal, wantCount)
	}
	if snap.SumNS != wantSum {
		t.Fatalf("sum=%d, want %d", snap.SumNS, wantSum)
	}
	if got := h.MeanNS(); got != wantSum/int64(wantCount) {
		t.Fatalf("mean=%d, want %d", got, wantSum/int64(wantCount))
	}
}

// TestHistogramQuantiles pins the extraction rule: the q-quantile is the
// upper bound of the bucket holding the ceil(q·n)-th observation.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.QuantileNS(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 1000 observations: 900 fast (~1ms bucket), 90 slow (~16ms), 10 very
	// slow (~1s) — a classic p50/p99/p999 shape.
	for i := 0; i < 900; i++ {
		h.ObserveNS(int64(time.Millisecond))
	}
	for i := 0; i < 90; i++ {
		h.ObserveNS(16 * int64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.ObserveNS(int64(time.Second))
	}
	p50, p99, p999 := h.QuantileNS(0.50), h.QuantileNS(0.99), h.QuantileNS(0.999)
	if p50 < int64(time.Millisecond) || p50 >= 2*int64(time.Millisecond)+histBaseNS {
		t.Errorf("p50 = %d, want ≈1ms bucket bound", p50)
	}
	if p99 < 16*int64(time.Millisecond) || p99 > 32*int64(time.Millisecond) {
		t.Errorf("p99 = %d, want ≈16ms bucket bound", p99)
	}
	if p999 < int64(time.Second) || p999 > 2*int64(time.Second) {
		t.Errorf("p999 = %d, want ≈1s bucket bound", p999)
	}
	if q1 := h.QuantileNS(1); q1 != p999 {
		t.Errorf("p100 = %d, want %d (same top bucket)", q1, p999)
	}
	// Monotone in q.
	prev := int64(0)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.QuantileNS(q)
		if v < prev {
			t.Errorf("quantile not monotone at q=%g: %d < %d", q, v, prev)
		}
		prev = v
	}
}

// TestHistogramOverflowSaturates: observations beyond the last finite
// bound count in +Inf and quantiles saturate at the last finite bound.
func TestHistogramOverflowSaturates(t *testing.T) {
	h := &Histogram{}
	h.ObserveNS(1 << 62)
	snap := h.Snapshot()
	if snap.Buckets[numBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", snap.Buckets[numBuckets-1])
	}
	if got, want := h.QuantileNS(1), BucketBoundNS(numFiniteBounds-1); got != want {
		t.Fatalf("saturated quantile = %d, want %d", got, want)
	}
}

// TestNilSafety: every record-side method must be a no-op on nil so call
// sites can gate observability by holding nil metrics.
func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveNS(5)
	if h.Count() != 0 || h.SumNS() != 0 || h.MeanNS() != 0 || h.QuantileNS(0.5) != 0 {
		t.Fatal("nil histogram reported values")
	}
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	var tr *Trace
	tr.Add("x", 0, 1)
	tr.Span("y", time.Now(), time.Now())
	if tr.Spans() != nil || tr.ID() != "" {
		t.Fatal("nil trace reported spans")
	}
	var r *Registry
	if r.NewCounter("a", "", "h") != nil || r.NewHistogram("b", "", "h") != nil {
		t.Fatal("nil registry returned live metrics")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestExpositionDeterministic: a fixed event sequence yields
// byte-identical exposition, regardless of registration interleavings of
// label order, and families/series come out name-sorted.
func TestExpositionDeterministic(t *testing.T) {
	build := func(flip bool) string {
		r := NewRegistry()
		labels := []string{`endpoint="solve"`, `endpoint="batch"`}
		if flip {
			labels[0], labels[1] = labels[1], labels[0]
		}
		for _, l := range labels {
			h := r.NewHistogram("nearclique_request_seconds", l, "request latency")
			h.ObserveNS(3 * int64(time.Millisecond))
			h.ObserveNS(40 * int64(time.Microsecond))
		}
		c := r.NewCounter("nearclique_admission_received_total", "", "admission attempts")
		c.Add(42)
		r.GaugeFunc("nearclique_queue_depth", "", "jobs waiting", func() float64 { return 3 })
		r.CounterFunc("nearclique_cache_hits_total", "", "cache hits", func() int64 { return 9 })
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(false), build(true)
	if a != b {
		t.Fatalf("exposition depends on registration order:\n%s\n---\n%s", a, b)
	}
	// Families sorted by name; histogram carries bucket/sum/count lines.
	idxAdm := strings.Index(a, "nearclique_admission_received_total 42")
	idxCache := strings.Index(a, "nearclique_cache_hits_total 9")
	idxQueue := strings.Index(a, "nearclique_queue_depth 3")
	idxHist := strings.Index(a, "nearclique_request_seconds_bucket")
	if idxAdm == -1 || idxCache == -1 || idxQueue == -1 || idxHist == -1 {
		t.Fatalf("exposition missing series:\n%s", a)
	}
	if !(idxAdm < idxCache && idxCache < idxQueue && idxQueue < idxHist) {
		t.Fatalf("families not name-sorted:\n%s", a)
	}
	// Series within a family sorted by label string: batch before solve.
	if bi, si := strings.Index(a, `endpoint="batch"`), strings.Index(a, `endpoint="solve"`); bi > si {
		t.Fatalf("series not label-sorted:\n%s", a)
	}
	// Cumulative buckets end at the count on the +Inf line.
	if !strings.Contains(a, `nearclique_request_seconds_bucket{endpoint="solve",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", a)
	}
	if !strings.Contains(a, `nearclique_request_seconds_count{endpoint="solve"} 2`) {
		t.Fatalf("missing _count:\n%s", a)
	}
}

// TestRegistryConflictsPanic: re-registering a name under another type or
// duplicating a series is a programmer error and must fail loudly.
func TestRegistryConflictsPanic(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("x_total", "", "h")
	expectPanic("type conflict", func() { r.NewHistogram("x_total", "", "h") })
	expectPanic("duplicate series", func() { r.NewCounter("x_total", "", "h") })
}

// TestConcurrentObserve hammers one histogram and one counter from many
// goroutines (run with -race in CI) and checks exact accounting after.
func TestConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	c := &Counter{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNS(int64(w*1000 + i))
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	var total uint64
	for _, b := range snap.Buckets {
		total += b
	}
	if snap.Count != workers*per || total != workers*per {
		t.Fatalf("count=%d bucketΣ=%d, want %d", snap.Count, total, workers*per)
	}
	if c.Value() != workers*per {
		t.Fatalf("counter=%d, want %d", c.Value(), workers*per)
	}
}

// TestExpositionCountMatchesInfBucketUnderWriters scrapes a histogram
// while writers keep observing: every scrape's _count must equal its
// le="+Inf" bucket, as Prometheus requires of a histogram.
func TestExpositionCountMatchesInfBucketUnderWriters(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("x_seconds", "", "h")
	const writers, scrapes = 4, 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					h.ObserveNS(int64(w)*1_000_000 + i)
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var buf bytes.Buffer
	for i := 0; i < scrapes; i++ {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `x_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			} else if v, ok := strings.CutPrefix(line, "x_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("scrape %d: +Inf bucket %q, _count %q:\n%s", i, inf, count, buf.String())
		}
	}
}

// TestTraceSpans: spans come back start-ordered with nonnegative
// durations, and absolute-instant spans resolve against the epoch.
func TestTraceSpans(t *testing.T) {
	tr := NewTrace("t-001")
	if tr.ID() != "t-001" {
		t.Fatalf("id = %q", tr.ID())
	}
	tr.Add("solve", 100, 50)
	tr.Add("admission_wait", 0, 100)
	tr.Add("solve/phase", 110, -5) // negative durations clamp to 0
	start := tr.Epoch().Add(200 * time.Nanosecond)
	tr.Span("commit", start, start.Add(25*time.Nanosecond))
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	wantOrder := []string{"admission_wait", "solve", "solve/phase", "commit"}
	for i, w := range wantOrder {
		if spans[i].Name != w {
			t.Fatalf("span %d = %q, want %q (order %v)", i, spans[i].Name, w, spans)
		}
	}
	if spans[2].DurNS != 0 {
		t.Errorf("negative duration not clamped: %+v", spans[2])
	}
	if spans[3].StartNS != 200 || spans[3].DurNS != 25 {
		t.Errorf("absolute span misresolved: %+v", spans[3])
	}
}

// TestQuantileRankExactness pins ceil-rank selection on a tiny histogram
// where off-by-one rank bugs would flip the answer: 2 fast + 1 slow
// observation has its p50 in the fast bucket and p67 in the slow one.
func TestQuantileRankExactness(t *testing.T) {
	h := &Histogram{}
	h.ObserveNS(1000)    // bucket 0
	h.ObserveNS(1000)    // bucket 0
	h.ObserveNS(1 << 20) // ~1ms bucket
	if got := h.QuantileNS(0.5); got != BucketBoundNS(0) {
		t.Errorf("p50 = %d, want %d (rank 2 of 3 is fast)", got, BucketBoundNS(0))
	}
	if got := h.QuantileNS(0.67); got == BucketBoundNS(0) {
		t.Errorf("p67 = %d, want the slow bucket (rank 3 of 3)", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNS(int64(i))
	}
	if h.Count() == 0 {
		b.Fatal("no observations")
	}
	_ = fmt.Sprintf("%d", h.Count())
}
