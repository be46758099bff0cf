package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nearclique/internal/report"
)

// result carries an asynchronous request's outcome back to the test body.
type result struct {
	status int
	body   []byte
}

func asyncPost(t *testing.T, url, body string) chan result {
	t.Helper()
	ch := make(chan result, 1)
	go func() {
		status, b, _ := post(t, url, body)
		ch <- result{status, b}
	}()
	return ch
}

// TestQueueSaturationReturns429 pins the backpressure contract
// deterministically: with one worker (held by the test hook) and one
// queue slot (occupied), the next request sheds with 429 + Retry-After
// before any solver work happens, and the held requests still complete.
func TestQueueSaturationReturns429(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 1, CacheBytes: -1})
	defer s.Close()
	started := make(chan struct{}, 8)
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

	res1 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`)
	<-started // the worker is now held inside job 1

	res2 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":2}`)
	waitFor(t, "job 2 to occupy the queue slot", func() bool { return s.admit.queued() == 1 })

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":"g","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	for i, ch := range []chan result{res1, res2} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("held request %d: status %d body %s", i+1, r.status, r.body)
		}
	}
	if got := s.admit.rejected.Load(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
}

// TestDrainWaitsForInFlightAndRefusesNew pins the graceful-drain
// ordering: draining flips /healthz to 503 and sheds new work
// immediately, but Drain() only returns after the in-flight job
// finishes — and that job's response is a normal 200.
func TestDrainWaitsForInFlightAndRefusesNew(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: 4, CacheBytes: -1})
	started := make(chan struct{}, 8)
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

	inFlight := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`)
	<-started

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, "draining to flip healthz", func() bool {
		return get(t, ts.URL+"/healthz", nil) == http.StatusServiceUnavailable
	})

	if status, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":2}`); status != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: status %d body %s, want 503", status, body)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still in flight")
	default:
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight job finished")
	}
	if r := <-inFlight; r.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d body %s", r.status, r.body)
	}
}

// TestRequestTimeoutMapsToGatewayTimeout: a deadline that expires while
// the job waits (the hook stalls past it) surfaces as 504 with the
// partial-run record — the wrapped context.DeadlineExceeded path.
func TestRequestTimeoutMapsToGatewayTimeout(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	s.testHookBeforeSolve = func() { time.Sleep(30 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	status, body, cache := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1,"timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d body %s, want 504", status, body)
	}
	var run report.Run
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Error, "deadline exceeded") {
		t.Fatalf("run error %q does not surface the deadline", run.Error)
	}
	if cache != "miss" {
		t.Fatalf("timed-out run reported cache %q", cache)
	}
	// Failed runs are never cached: the retry re-executes.
	s.testHookBeforeSolve = nil
	if status, _, c := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1,"timeout_ms":0}`); status != http.StatusOK || c != "miss" {
		t.Fatalf("retry after timeout: status %d cache %q, want 200 miss", status, c)
	}
}

// TestBatchDeadlinesAnchorAtAdmission: item deadlines count from the
// batch's admission, not each item's start. The hook stalls the first
// item past both items' budgets; the second item must then expire
// immediately instead of receiving a fresh budget of its own.
func TestBatchDeadlinesAnchorAtAdmission(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	var once sync.Once
	s.testHookBeforeSolve = func() {
		once.Do(func() { time.Sleep(60 * time.Millisecond) })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	status, body, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","seed":1,"timeout_ms":30},{"graph":"g","seed":2,"timeout_ms":30}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("batch: %d lines, want 2: %s", len(lines), body)
	}
	for i, line := range lines {
		var run report.Run
		if err := json.Unmarshal([]byte(line), &run); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(run.Error, "deadline exceeded") {
			t.Errorf("item %d should have expired at the admission-anchored deadline: %+v", i, run)
		}
	}
}

// TestSolvePanicIsContained: a panic inside one solve must answer that
// request with 500 and leave the worker pool fully serviceable — the
// daemon, unlike the one-shot CLI, must outlive a poisoned request.
func TestSolvePanicIsContained(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	panics := true
	s.testHookBeforeSolve = func() {
		if panics {
			panics = false
			panic("poisoned request")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	status, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d body %s, want 500", status, body)
	}
	if !strings.Contains(string(body), "poisoned request") {
		t.Fatalf("panic not surfaced in the error body: %s", body)
	}
	// The pool survived: the next request is served normally.
	if status, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":2}`); status != http.StatusOK {
		t.Fatalf("solve after panic: status %d body %s", status, body)
	}
}

// TestZeroQueueDepthShedsImmediately: QueueDepth < 0 (the daemon's
// -queue 0) means no waiting slots at all — one busy worker and the
// next request sheds.
func TestZeroQueueDepthShedsImmediately(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, QueueDepth: -1, CacheBytes: -1})
	defer s.Close()
	started := make(chan struct{}, 8)
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

	res1 := asyncPost(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`)
	<-started
	if status, _, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":2}`); status != http.StatusTooManyRequests {
		t.Fatalf("second request with zero queue: status %d, want 429", status)
	}
	close(release)
	if r := <-res1; r.status != http.StatusOK {
		t.Fatalf("held request: status %d", r.status)
	}
}

// TestAdmitterBoundsAndDrain unit-tests the admission controller without
// HTTP: capacity semantics, queue-full, drain, and post-drain refusal.
func TestAdmitterBoundsAndDrain(t *testing.T) {
	a := newAdmitter(1, 2, nil)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	job := func() {
		started <- struct{}{}
		<-release
	}
	if err := a.submit(job, func() {}); err != nil {
		t.Fatal(err)
	}
	<-started // running
	for i := 0; i < 2; i++ {
		if err := a.submit(job, func() {}); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if err := a.submit(job, func() {}); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity submit: %v, want errQueueFull", err)
	}
	close(release)
	a.drain()
	if err := a.submit(func() {}, func() {}); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit: %v, want errDraining", err)
	}
	if acc, rej := a.accepted.Load(), a.rejected.Load(); acc != 3 || rej != 1 {
		t.Fatalf("counters accepted=%d rejected=%d, want 3/1", acc, rej)
	}
	if inFlight := a.inFlight.Load(); inFlight != 0 {
		t.Fatalf("inFlight %d after drain", inFlight)
	}
}

// TestStatzSchemaRoundTrips sanity-checks that the /statz payload is the
// exact report.ServerStats schema (monitoring depends on it).
func TestStatzSchemaRoundTrips(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 2, QueueDepth: 7, CacheBytes: 1 << 20, Version: "test-build"})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/v1/solve", `{"graph":"g"}`)

	var stats report.ServerStats
	if status := get(t, ts.URL+"/statz", &stats); status != http.StatusOK {
		t.Fatal("statz failed")
	}
	if stats.Version != "test-build" || stats.Concurrency != 2 || stats.QueueCapacity != 7 {
		t.Fatalf("statz config echo wrong: %+v", stats)
	}
	if stats.Accepted != 1 || stats.Cache.Misses == 0 || len(stats.Graphs) != 1 {
		t.Fatalf("statz counters wrong: %+v", stats)
	}
	if stats.Graphs[0].Name != "g" || stats.Graphs[0].Solves != 1 {
		t.Fatalf("per-graph stats wrong: %+v", stats.Graphs[0])
	}
	if stats.UptimeSec < 0 || stats.Draining {
		t.Fatalf("liveness fields wrong: %+v", stats)
	}
}
