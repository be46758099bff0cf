package costmodel

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func feat(engine string, n, m, versions int) Features {
	return Features{Engine: engine, N: n, M: m, Epsilon: 0.25, Sample: 6, Versions: versions}
}

func TestPredictScalesWithWork(t *testing.T) {
	m := New()
	// 100 ns per unit of work, exactly.
	small := feat("seq", 1000, 4000, 1)
	for i := 0; i < minSamples; i++ {
		m.Observe(small, 0, 0, int64(100*small.work()))
	}
	big := feat("seq", 10000, 40000, 1)
	p := m.Predict(big)
	if !p.Reliable() {
		t.Fatalf("prediction not reliable after %d samples", minSamples)
	}
	want := 100 * big.work()
	if math.Abs(p.NS-want)/want > 1e-9 {
		t.Fatalf("NS = %g, want %g", p.NS, want)
	}
	// Boosting multiplies work.
	boosted := big
	boosted.Versions = 4
	if pb := m.Predict(boosted); math.Abs(pb.NS-4*want)/want > 1e-9 {
		t.Fatalf("boosted NS = %g, want %g", pb.NS, 4*want)
	}
}

func TestRoundsNormalizedPerVersion(t *testing.T) {
	m := New()
	f := feat("sharded", 1000, 4000, 2)
	for i := 0; i < minSamples; i++ {
		m.Observe(f, 60, 1<<20, 5_000_000) // 30 rounds per version
	}
	// Rounds must not scale with graph size, only with versions.
	big := feat("sharded", 100000, 400000, 3)
	p := m.Predict(big)
	if math.Abs(p.Rounds-90) > 1e-6 {
		t.Fatalf("Rounds = %g, want 90 (30/version × 3)", p.Rounds)
	}
	if p.Bytes <= 0 {
		t.Fatalf("Bytes = %g, want > 0", p.Bytes)
	}
}

func TestSeqZeroRoundsStayZero(t *testing.T) {
	m := New()
	f := feat("seq", 1000, 4000, 1)
	for i := 0; i < minSamples; i++ {
		m.Observe(f, 0, 0, 1_000_000)
	}
	p := m.Predict(f)
	if p.Rounds != 0 || p.Bytes != 0 {
		t.Fatalf("seq prediction has Rounds=%g Bytes=%g, want 0,0", p.Rounds, p.Bytes)
	}
	if p.NS <= 0 {
		t.Fatalf("NS = %g, want > 0", p.NS)
	}
}

func TestRefineTrackedSeparately(t *testing.T) {
	m := New()
	plain := feat("seq", 1000, 4000, 1)
	refined := plain
	refined.Refine = true
	for i := 0; i < minSamples; i++ {
		m.Observe(plain, 0, 0, 1_000_000)
		m.Observe(refined, 0, 0, 10_000_000)
	}
	pp, pr := m.Predict(plain), m.Predict(refined)
	if pr.NS < 5*pp.NS {
		t.Fatalf("refined NS %g not well above plain %g", pr.NS, pp.NS)
	}
}

func TestPickEngine(t *testing.T) {
	m := New()
	f := feat("", 1000, 4000, 1)
	// No data: no pick.
	if got := m.PickEngine(f, []string{"seq", "sharded"}); got != "" {
		t.Fatalf("PickEngine on empty model = %q, want \"\"", got)
	}
	slow, fast := feat("sharded", 1000, 4000, 1), feat("seq", 1000, 4000, 1)
	for i := 0; i < minSamples; i++ {
		m.Observe(slow, 40, 1<<16, 50_000_000)
		m.Observe(fast, 0, 0, 1_000_000)
	}
	if got := m.PickEngine(f, []string{"seq", "sharded"}); got != "seq" {
		t.Fatalf("PickEngine = %q, want seq", got)
	}
	// A candidate with too few samples is skipped, not preferred.
	m.Observe(feat("async", 1000, 4000, 1), 40, 1<<16, 1)
	if got := m.PickEngine(f, []string{"async", "seq"}); got != "seq" {
		t.Fatalf("PickEngine with under-sampled cheap engine = %q, want seq", got)
	}
}

func TestDishonestSamplesIgnored(t *testing.T) {
	m := New()
	f := feat("seq", 1000, 4000, 1)
	m.Observe(f, 0, 0, 0)  // zero wall: a replayed cache hit shape
	m.Observe(f, 0, 0, -5) // nonsense
	ff := f
	ff.Engine = ""
	m.Observe(ff, 0, 0, 1_000_000) // unresolved engine
	if got := m.Samples(); got != 0 {
		t.Fatalf("Samples = %d after dishonest observations, want 0", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := New()
	f := feat("sharded", 5000, 20000, 2)
	for i := 0; i < minSamples; i++ {
		m.Observe(f, 100, 1<<20, 25_000_000)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New()
	if err := json.Unmarshal(blob, m2); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Predict(f), m2.Predict(f)
	if p1 != p2 {
		t.Fatalf("round-trip changed prediction: %+v vs %+v", p1, p2)
	}
	if err := json.Unmarshal([]byte(`{"format":99,"engines":{}}`), New()); err == nil {
		t.Fatal("wrong format version accepted")
	}
	if err := json.Unmarshal([]byte(`{"format":1,"engines":{}}`), New()); err == nil {
		t.Fatal("stale format version accepted")
	}
	if err := json.Unmarshal([]byte(`{"format":2}`), New()); err == nil {
		t.Fatal("missing engines section accepted")
	}
}

// TestPredictLearnsWorkExponent trains on a perfectly quadratic cost
// curve across a spread of sizes and checks that extrapolation to a
// larger size follows the curve instead of the linear-in-work default —
// the regression must learn the exponent, not assume it.
func TestPredictLearnsWorkExponent(t *testing.T) {
	m := New()
	for _, n := range []int{1000, 2000, 5000, 10000, 1000, 2000, 5000, 10000} {
		f := feat("seq", n, 4*n, 1)
		w := f.work()
		m.Observe(f, 0, 0, int64(1e-3*w*w)) // ns = 1e-3 × work²
	}
	big := feat("seq", 50000, 200000, 1)
	p := m.Predict(big)
	if !p.Reliable() {
		t.Fatalf("prediction not reliable after %d samples", minSamples)
	}
	want := 1e-3 * big.work() * big.work()
	if ratio := p.NS / want; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("NS = %g, want ≈%g (ratio %.3f): exponent not learned", p.NS, want, ratio)
	}
	if s := m.Summaries(); len(s) != 1 || math.Abs(s[0].WorkExponent-2) > 0.01 {
		t.Fatalf("WorkExponent = %+v, want ≈2", s)
	}
}

// TestSlopePinnedWithoutSizeSpread trains at a single size — the serving
// daemon's common case — and checks the model falls back to the
// geometric-mean ratio (slope 1) instead of fitting noise.
func TestSlopePinnedWithoutSizeSpread(t *testing.T) {
	m := New()
	small := feat("seq", 1000, 4000, 1)
	for i := 0; i < minSamples; i++ {
		m.Observe(small, 0, 0, int64(100*small.work())+int64(i)) // ±noise, zero x-spread
	}
	if s := m.Summaries(); s[0].WorkExponent != 1 {
		t.Fatalf("WorkExponent = %g with zero size spread, want pinned 1", s[0].WorkExponent)
	}
	big := feat("seq", 10000, 40000, 1)
	p := m.Predict(big)
	want := 100 * big.work()
	if math.Abs(p.NS-want)/want > 1e-3 {
		t.Fatalf("NS = %g, want ≈%g (linear fallback)", p.NS, want)
	}
}

func TestSummaries(t *testing.T) {
	m := New()
	for i := 0; i < 3; i++ {
		m.Observe(feat("sharded", 1000, 4000, 1), 30, 1<<16, 5_000_000)
		m.Observe(feat("seq", 1000, 4000, 1), 0, 0, 1_000_000)
	}
	s := m.Summaries()
	if len(s) != 2 || s[0].Engine != "seq" || s[1].Engine != "sharded" {
		t.Fatalf("Summaries = %+v, want seq then sharded", s)
	}
	if s[0].Samples != 3 || s[0].NSPerWork <= 0 {
		t.Fatalf("seq summary = %+v", s[0])
	}
	if s[1].RoundsPerVer <= 0 || s[1].BytesPerWork <= 0 {
		t.Fatalf("sharded summary = %+v", s[1])
	}
}

func TestConcurrentObservePredict(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := feat("sharded", 1000+w, 4000, 1)
			for i := 0; i < 500; i++ {
				m.Observe(f, 30, 1<<16, 5_000_000)
				m.Predict(f)
				m.PickEngine(f, []string{"seq", "sharded"})
			}
		}(w)
	}
	wg.Wait()
	if got := m.Samples(); got != 8*500 {
		t.Fatalf("Samples = %d, want %d", got, 8*500)
	}
}

func TestShadowWorkTerm(t *testing.T) {
	// The shadow engine's work is one O(n+m) build plus Sample draws at
	// O(k²) pair probes each; Versions/Epsilon must not enter.
	f := Features{Engine: "shadow", N: 1000, M: 4000, Sample: 4096, K: 5}
	if got, want := f.work(), float64(1000+4000+1)+4096*25; got != want {
		t.Fatalf("shadow work = %g, want %g", got, want)
	}
	// K below the floor clamps to 2 instead of shrinking work to zero.
	degenerate := f
	degenerate.K = 0
	if got, want := degenerate.work(), float64(1000+4000+1)+4096*4; got != want {
		t.Fatalf("shadow work (k clamp) = %g, want %g", got, want)
	}

	// Observe/Predict round-trips through the shadow term like any other
	// engine: doubling samples roughly doubles the predicted cost once k²
	// dominates the build term.
	m := New()
	for i := 0; i < minSamples; i++ {
		m.Observe(f, 0, 0, int64(100*f.work()))
	}
	p := m.Predict(f)
	if !p.Reliable() {
		t.Fatalf("shadow prediction not reliable after %d samples", minSamples)
	}
	want := 100 * f.work()
	if math.Abs(p.NS-want)/want > 1e-9 {
		t.Fatalf("NS = %g, want %g", p.NS, want)
	}
	doubled := f
	doubled.Sample = 8192
	if pd := m.Predict(doubled); pd.NS <= p.NS {
		t.Fatalf("doubling samples did not raise predicted cost: %g -> %g", p.NS, pd.NS)
	}
}
