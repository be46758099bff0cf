package server

// Tests for the flight/cost-model serving surface and the backpressure
// bugfix sweep: the computed Retry-After, the /statz accounting
// reconciliation invariant, cache-hit exclusion from training and
// latency, the priced-admission fast path, and per-request flight
// sampling.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nearclique/internal/costmodel"
	"nearclique/internal/obs"
	"nearclique/internal/report"
)

// TestRetryAfterScalesWithQueueDepth pins the Retry-After bugfix at the
// admitter level: with an observed mean job wall time, a deep queue must
// advise a strictly larger (and exactly computed) back-off than an empty
// one — not the old hardcoded 1.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	a := newAdmitter(1, 8, &obs.Histogram{})
	// Seed the executed-job histogram: 4 jobs of 2s → mean exactly 2s.
	for i := 0; i < 4; i++ {
		a.exec.ObserveNS(2 * int64(time.Second))
	}

	if got := a.retryAfterSeconds(); got != 2 {
		t.Fatalf("empty queue: Retry-After %d, want 2 (= ceil((0+1)×2s/1 worker))", got)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	if err := a.submit(func() { close(started); <-release }, func() {}); err != nil {
		t.Fatal(err)
	}
	<-started // worker held; the queue is now genuinely waiting depth
	for i := 0; i < 6; i++ {
		if err := a.submit(func() {}, func() {}); err != nil {
			t.Fatalf("queue slot %d: %v", i, err)
		}
	}
	deep := a.retryAfterSeconds()
	if want := 14; deep != want { // ceil((6+1)×2s/1 worker)
		t.Fatalf("deep queue: Retry-After %d, want %d", deep, want)
	}
	close(release)
	a.drain()

	// No observations yet → the RFC floor, not zero. A nil histogram (the
	// bare-test construction) must behave exactly like an empty one.
	if got := newAdmitter(1, 1, nil).retryAfterSeconds(); got != 1 {
		t.Fatalf("cold admitter: Retry-After %d, want 1", got)
	}
}

// TestRetryAfterHeaderComputed pins the same fix end-to-end: a saturated
// /v1/solve answers 429 with the queue-clearing estimate in the header.
func TestRetryAfterHeaderComputed(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 1, CacheBytes: -1})
	defer s.Close()
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testHookBeforeSolve = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}
	// Observed history: 2 jobs of 3s → mean exactly 3s per executed job.
	s.admit.exec.ObserveNS(3 * int64(time.Second))
	s.admit.exec.ObserveNS(3 * int64(time.Second))

	res1 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`)
	<-started
	res2 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":2}`)
	waitFor(t, "queue slot occupied", func() bool { return s.admit.queued() == 1 })

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":"g","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// ceil((1 queued + 1) × 3s / 1 worker) = 6, never the old constant 1.
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After %q, want \"6\"", got)
	}

	close(release)
	for _, ch := range []chan result{res1, res2} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("held request: status %d body %s", r.status, r.body)
		}
	}
}

// TestStatzCountersReconcile pins the admission accounting invariant on
// both the solve and batch paths, through cache hits, sheds, and
// refusals: received == accepted + rejected + refused, always, and cache
// hits never enter the ledger at all.
func TestStatzCountersReconcile(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 1, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	// One executed solve, then a cache hit of it.
	if status, body, cache := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`); status != http.StatusOK || cache != "miss" {
		t.Fatalf("solve: status %d cache %q body %s", status, cache, body)
	}
	if status, _, cache := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`); status != http.StatusOK || cache != "hit" {
		t.Fatalf("repeat solve: status %d cache %q", status, cache)
	}
	st := s.Stats()
	if st.Received != 1 || st.Accepted != 1 || st.JobsDone != 1 {
		t.Fatalf("after 1 executed + 1 hit: received=%d accepted=%d jobs_done=%d, want 1/1/1 (hits must stay out of the ledger)",
			st.Received, st.Accepted, st.JobsDone)
	}

	// One batch admission covering a hit, an executed item, and an
	// in-band per-item error: still exactly one admission.
	status, body, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","seed":1},{"graph":"g","seed":2},{"graph":"nope","seed":3}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	if lines := strings.Count(string(body), "\n"); lines != 3 {
		t.Fatalf("batch stream has %d lines, want 3", lines)
	}
	st = s.Stats()
	if st.Received != 2 || st.Accepted != 2 {
		t.Fatalf("after batch: received=%d accepted=%d, want 2/2 (one admission per batch)", st.Received, st.Accepted)
	}

	// A shed: hold the worker, fill the queue slot, overflow.
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testHookBeforeSolve = func() {
		started <- struct{}{}
		<-release
	}
	res1 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":10}`)
	<-started
	res2 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":11}`)
	waitFor(t, "queue slot occupied", func() bool { return s.admit.queued() == 1 })
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":12}`); status != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", status)
	}
	close(release)
	for _, ch := range []chan result{res1, res2} {
		if r := <-ch; r.status != http.StatusOK {
			t.Fatalf("held request: status %d body %s", r.status, r.body)
		}
	}

	// A refusal: draining servers 503 new admissions.
	s.StartDrain()
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":13}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining solve: status %d, want 503", status)
	}

	st = s.Stats()
	if st.Rejected != 1 || st.Refused != 1 {
		t.Fatalf("rejected=%d refused=%d, want 1/1", st.Rejected, st.Refused)
	}
	if st.Received != st.Accepted+st.Rejected+st.Refused {
		t.Fatalf("accounting broken: received=%d != accepted=%d + rejected=%d + refused=%d",
			st.Received, st.Accepted, st.Rejected, st.Refused)
	}

	// The same invariant must survive the HTTP JSON round trip.
	var over report.ServerStats
	if status := get(t, ts.URL+"/statz", &over); status != http.StatusOK {
		t.Fatalf("statz: status %d", status)
	}
	if over.Received != over.Accepted+over.Rejected+over.Refused {
		t.Fatalf("statz accounting broken: %+v", over)
	}
}

// TestCacheHitsExcludedFromCostAndLatency pins the honest-sample bugfix:
// cache hits train nothing and never touch the latency ledger, and
// failed runs execute (counting as jobs) without training the model.
func TestCacheHitsExcludedFromCostAndLatency(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	if status, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"seq","seed":7}`); status != http.StatusOK {
		t.Fatalf("solve: status %d body %s", status, body)
	}
	samples, jobs, wall := s.cost.Samples(), s.admit.exec.Count(), s.admit.exec.SumNS()
	if samples != 1 || jobs != 1 || wall <= 0 {
		t.Fatalf("after executed solve: samples=%d jobs=%d wall=%d, want 1/1/>0", samples, jobs, wall)
	}

	for i := 0; i < 3; i++ {
		if status, _, cache := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"seq","seed":7}`); status != http.StatusOK || cache != "hit" {
			t.Fatalf("repeat %d: status %d cache %q", i, status, cache)
		}
	}
	if got := s.cost.Samples(); got != samples {
		t.Errorf("cache hits trained the model: samples %d → %d", samples, got)
	}
	if got := s.admit.exec.Count(); got != jobs {
		t.Errorf("cache hits entered the latency ledger: jobs_done %d → %d", jobs, got)
	}
	if got := s.admit.exec.SumNS(); got != wall {
		t.Errorf("cache hits entered the latency ledger: wall %d → %d", wall, got)
	}

	// An aborted run executes (one more job) but must not train.
	if status, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"sharded","seed":7,"max_rounds":1}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("aborted solve: status %d body %s", status, body)
	}
	if got := s.admit.exec.Count(); got != jobs+1 {
		t.Errorf("aborted run not ledgered as a job: jobs_done %d, want %d", got, jobs+1)
	}
	if got := s.cost.Samples(); got != samples {
		t.Errorf("aborted run trained the model: samples %d → %d", samples, got)
	}
}

// TestFastPathBypassesCheapPredicted: once the model reliably prices a
// request under the threshold, it runs inline past the queue and is
// ledgered as fast-path; unpriced requests keep queueing.
func TestFastPathBypassesCheapPredicted(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 4, CacheBytes: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	// A fresh server must not bypass: no reliable prediction yet.
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"seq","seed":1}`); status != http.StatusOK {
		t.Fatal("warmup solve failed")
	}
	if got := s.Stats().FastPath; got != 0 {
		t.Fatalf("unpriced request took the fast path (fast_path=%d)", got)
	}

	// Seed the model past its reliability gate with runs priced at ~1ns
	// per work unit — far under the 10ms default threshold.
	feat := costmodel.Features{Engine: "seq", N: 300, M: 2000, Epsilon: 0.25, Sample: 6, Versions: 1}
	for i := 0; i < 16; i++ {
		s.cost.Observe(feat, 0, 0, 2300)
	}
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"seq","seed":2}`); status != http.StatusOK {
		t.Fatal("priced solve failed")
	}
	st := s.Stats()
	if st.FastPath != 1 {
		t.Fatalf("fast_path=%d, want 1", st.FastPath)
	}
	if st.Received != st.Accepted+st.Rejected+st.Refused {
		t.Fatalf("fast path broke accounting: %+v", st)
	}

	// An engine the model has never seen still queues.
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"sharded","seed":3}`); status != http.StatusOK {
		t.Fatal("sharded solve failed")
	}
	if got := s.Stats().FastPath; got != 1 {
		t.Fatalf("unpriced engine bypassed the queue (fast_path=%d)", got)
	}
}

// TestSolveFlightSampling: a request with flight > 0 gets a per-run
// trace embedded in its response, bypasses the result cache in both
// directions, and feeds the /statz flight aggregate.
func TestSolveFlightSampling(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	traced := `{"graph":"g","engine":"sharded","seed":3,"flight":16}`
	var runs [2]report.Run
	for i := range runs {
		status, body, cache := post(t, ts.URL+"/v1/solve", traced)
		if status != http.StatusOK || cache != "miss" {
			t.Fatalf("traced solve %d: status %d cache %q (traces must never be cached or served from cache)", i, status, cache)
		}
		if err := json.Unmarshal(body, &runs[i]); err != nil {
			t.Fatal(err)
		}
		fl := runs[i].Flight
		if fl == nil || len(fl.Events) == 0 || fl.Offered == 0 {
			t.Fatalf("traced solve %d: flight section missing or empty: %+v", i, fl)
		}
		if len(fl.Events) > 16 {
			t.Fatalf("traced solve %d: %d events, want ≤ 16", i, len(fl.Events))
		}
		for _, ev := range fl.Events {
			if ev.Kind != "round" && ev.Kind != "phase" {
				t.Fatalf("bad event kind %q", ev.Kind)
			}
		}
	}

	// Same params without the trace: executes and caches normally — the
	// traced runs left nothing behind.
	plain := `{"graph":"g","engine":"sharded","seed":3}`
	if status, body, cache := post(t, ts.URL+"/v1/solve", plain); status != http.StatusOK || cache != "miss" {
		t.Fatalf("plain solve: status %d cache %q body %s", status, cache, body)
	}
	if _, _, cache := post(t, ts.URL+"/v1/solve", plain); cache != "hit" {
		t.Fatalf("plain repeat: cache %q, want hit", cache)
	}

	// Batch items trace too.
	status, body, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","engine":"sharded","seed":4,"flight":8}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	var line report.Run
	if err := json.Unmarshal(body, &line); err != nil {
		t.Fatal(err)
	}
	if line.Flight == nil || len(line.Flight.Events) == 0 || len(line.Flight.Events) > 8 {
		t.Fatalf("batch item flight section wrong: %+v", line.Flight)
	}

	var st report.ServerStats
	if status := get(t, ts.URL+"/statz", &st); status != http.StatusOK {
		t.Fatalf("statz: status %d", status)
	}
	if st.Flight == nil {
		t.Fatal("statz flight section missing after traced solves")
	}
	if st.Flight.SolvesTraced != 3 {
		t.Errorf("solves_traced=%d, want 3", st.Flight.SolvesTraced)
	}
	if st.Flight.Rounds == 0 || st.Flight.EventsOffered == 0 || len(st.Flight.Recent) == 0 {
		t.Errorf("statz flight aggregate empty: %+v", st.Flight)
	}
	if st.CostModel == nil || st.CostModel.Samples == 0 {
		t.Errorf("cost model section missing after executed solves: %+v", st.CostModel)
	}

	// Negative windows are a client error.
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","flight":-1}`); status != http.StatusBadRequest {
		t.Errorf("flight:-1 status %d, want 400", status)
	}
}

// TestAutoRunsReplayWhateverTheModel: engine=auto always runs the
// sequential replay. A model holding enough honest samples in which
// sharded is far cheaper than seq for the test graph must not move an
// auto request onto sharded, on /v1/solve or /v1/batch: the body stays
// the replay's (engine "auto", no rounds, no frames) and equals an
// unseeded server's body apart from wall_ns. Both answers share one
// cache key, so anything else would make a cached body depend on the
// model's state.
func TestAutoRunsReplayWhateverTheModel(t *testing.T) {
	path := writeTestSnapshot(t)
	serve := func(seedModel bool) (solve, batch []byte) {
		s := New(Config{Concurrency: 1, QueueDepth: 4, CacheBytes: -1})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		g, err := s.LoadGraph("g", path)
		if err != nil {
			t.Fatal(err)
		}
		if seedModel {
			sharded := costmodel.Features{Engine: "sharded", N: g.N, M: g.M, Epsilon: 0.25, Sample: 6, Versions: 1}
			seq := sharded
			seq.Engine = "seq"
			for i := 0; i < 16; i++ {
				s.cost.Observe(sharded, 26, 1<<16, 1_000)
				s.cost.Observe(seq, 0, 0, 1_000_000_000)
			}
			if ps, pq := s.cost.Predict(sharded), s.cost.Predict(seq); !ps.Reliable() || !pq.Reliable() || ps.NS >= pq.NS {
				t.Fatalf("seeding failed: sharded %+v, seq %+v", ps, pq)
			}
		}
		status, solve, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"auto","seed":1}`)
		if status != http.StatusOK {
			t.Fatalf("solve: status %d body %s", status, solve)
		}
		status, batch, _ = post(t, ts.URL+"/v1/batch", `{"requests":[{"graph":"g","engine":"auto","seed":1}]}`)
		if status != http.StatusOK {
			t.Fatalf("batch: status %d body %s", status, batch)
		}
		return solve, batch
	}
	seededSolve, seededBatch := serve(true)
	plainSolve, plainBatch := serve(false)
	for _, c := range []struct {
		name          string
		seeded, plain []byte
	}{{"solve", seededSolve, plainSolve}, {"batch", seededBatch, plainBatch}} {
		var run report.Run
		if err := json.Unmarshal(c.seeded, &run); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if run.Engine != "auto" || run.Rounds != 0 || run.Frames != 0 {
			t.Fatalf("%s: seeded model moved auto off the replay: engine %q, rounds %d, frames %d",
				c.name, run.Engine, run.Rounds, run.Frames)
		}
		if len(run.Candidates) == 0 {
			t.Fatalf("%s: no candidates on the planted graph: %s", c.name, c.seeded)
		}
		if got, want := stripWall(t, c.seeded), stripWall(t, c.plain); got != want {
			t.Fatalf("%s: seeded body differs from unseeded:\n%s\n%s", c.name, got, want)
		}
	}
}
