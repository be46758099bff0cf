package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// runEndpoint is one way a request executes: /v1/solve, /v1/count, or
// the first item of a /v1/batch. post sends the request spelled by
// fields (a JSON fragment after "graph") and returns the HTTP status, the
// executed record's line, and the X-Nearclique-Cache header ("" for a
// batch). A batch carries a second, clean item after it (a fresh seed
// each call, so it never hits the cache), whose line must stream
// whatever happened to the first.
type runEndpoint struct {
	name   string
	engine string // the record's engine field
	inBand bool   // failures ride in the stream, under a 200
	post   func(t *testing.T, url, fields string) (int, []byte, string)
}

func runEndpoints() []runEndpoint {
	next := 1000
	return []runEndpoint{
		{name: "solve", engine: "auto", post: func(t *testing.T, url, fields string) (int, []byte, string) {
			return post(t, url+"/v1/solve", `{"graph":"g",`+fields+`}`)
		}},
		{name: "count", engine: "shadow", post: func(t *testing.T, url, fields string) (int, []byte, string) {
			return post(t, url+"/v1/count", `{"graph":"g","k":3,"samples":128,`+fields+`}`)
		}},
		{name: "batch", engine: "auto", inBand: true, post: func(t *testing.T, url, fields string) (int, []byte, string) {
			t.Helper()
			next++
			status, body, cache := post(t, url+"/v1/batch",
				fmt.Sprintf(`{"requests":[{"graph":"g",%s},{"graph":"g","seed":%d}]}`, fields, next))
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			if status != http.StatusOK || len(lines) != 2 {
				t.Fatalf("batch: status %d, %d lines, want 200 and 2: %s", status, len(lines), body)
			}
			var companion report.Run
			if err := json.Unmarshal(lines[1], &companion); err != nil || companion.Error != "" {
				t.Fatalf("the item after the first did not stream cleanly: %s (%v)", lines[1], err)
			}
			return status, lines[0], cache
		}},
	}
}

// runLine is the part of a Run or CountRun line these tests read.
type runLine struct {
	Engine string `json:"engine"`
	Error  string `json:"error"`
}

func decodeRunLine(t *testing.T, line []byte) runLine {
	t.Helper()
	var rl runLine
	if err := json.Unmarshal(line, &rl); err != nil {
		t.Fatalf("decoding %s: %v", line, err)
	}
	return rl
}

// checkMissLedger pins /statz's misses == executed solves: every executed
// run, panicked ones included, is one per-graph solve, one per-graph
// miss and one cache miss.
func checkMissLedger(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	g := st.Graphs[0]
	if g.Solves != g.CacheMisses || g.CacheMisses != st.Cache.Misses {
		t.Fatalf("miss ledger broken: solves=%d cache_misses=%d Cache.Misses=%d, want all equal",
			g.Solves, g.CacheMisses, st.Cache.Misses)
	}
}

// newHookedServer serves one loaded graph on one worker with the cache
// on, so the miss ledger is kept.
func newHookedServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New(Config{Concurrency: 1, CacheBytes: 1 << 20})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, err := s.LoadGraph("g", writeTestSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	return s, ts.URL
}

// TestRequestTimeoutMapsToGatewayTimeout: a deadline that expires while
// the job waits (the hook stalls past it) surfaces as 504 with the
// partial-run record — the wrapped context.DeadlineExceeded path — on
// every endpoint (in band on a batch item), and the retry executes.
func TestRequestTimeoutMapsToGatewayTimeout(t *testing.T) {
	for _, ep := range runEndpoints() {
		t.Run(ep.name, func(t *testing.T) {
			s, url := newHookedServer(t)
			s.testHookBeforeSolve = func() { time.Sleep(30 * time.Millisecond) }

			status, line, cache := ep.post(t, url, `"seed":1,"timeout_ms":1`)
			if !ep.inBand && status != http.StatusGatewayTimeout {
				t.Fatalf("expired deadline: status %d body %s, want 504", status, line)
			}
			if run := decodeRunLine(t, line); run.Engine != ep.engine || !strings.Contains(run.Error, "deadline exceeded") {
				t.Fatalf("run %s does not surface the deadline on a %s record", line, ep.engine)
			}
			if !ep.inBand && cache != "miss" {
				t.Fatalf("timed-out run reported cache %q", cache)
			}
			// Failed runs are never cached: the retry re-executes.
			s.testHookBeforeSolve = nil
			status, line, cache = ep.post(t, url, `"seed":1,"timeout_ms":0`)
			if run := decodeRunLine(t, line); status != http.StatusOK || run.Error != "" || (!ep.inBand && cache != "miss") {
				t.Fatalf("retry after timeout: status %d cache %q line %s, want 200 miss", status, cache, line)
			}
			if hits := s.Stats().Cache.Hits; hits != 0 {
				t.Fatalf("retry after timeout served %d cache hits, want a miss", hits)
			}
			checkMissLedger(t, s)
		})
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

// TestSolvePanicIsContained: a panic inside one run must answer that
// request with 500 (in band on a batch item, whose stream goes on) and
// leave the worker pool fully serviceable — the daemon, unlike the
// one-shot CLI, must outlive a poisoned request. The panicked run still
// executed, so the miss ledger counts it on both sides.
func TestSolvePanicIsContained(t *testing.T) {
	for _, ep := range runEndpoints() {
		t.Run(ep.name, func(t *testing.T) {
			s, url := newHookedServer(t)
			panics := true
			s.testHookBeforeSolve = func() {
				if panics {
					panics = false
					panic("poisoned request")
				}
			}

			status, line, _ := ep.post(t, url, `"seed":1`)
			if !ep.inBand && status != http.StatusInternalServerError {
				t.Fatalf("panicking run: status %d body %s, want 500", status, line)
			}
			if run := decodeRunLine(t, line); run.Engine != ep.engine || !strings.Contains(run.Error, "poisoned request") {
				t.Fatalf("panic not surfaced in a %s record's error: %s", ep.engine, line)
			}
			// The pool survived: the next request is served normally.
			if status, line, _ := ep.post(t, url, `"seed":2`); status != http.StatusOK || decodeRunLine(t, line).Error != "" {
				t.Fatalf("run after panic: status %d body %s", status, line)
			}
			checkMissLedger(t, s)
		})
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
