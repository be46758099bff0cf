package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nearclique/internal/gen"
	"nearclique/internal/graphio"
	"nearclique/internal/report"
)

// writeTestSnapshot writes a small planted instance as a `.ncsr` file and
// returns its path.
func writeTestSnapshot(t *testing.T) string {
	t.Helper()
	g := gen.PlantedNearClique(300, 90, 0.02, 0.05, 1).Graph
	path := filepath.Join(t.TempDir(), "g.ncsr")
	if err := graphio.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// post sends a JSON body and returns the status, response body, and the
// X-Nearclique-Cache header.
func post(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header.Get("X-Nearclique-Cache")
}

func get(t *testing.T, url string, dst interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitFor polls cond for up to 5s — used where a state change propagates
// through a goroutine (queue occupancy, drain flags).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEndToEndServe is the acceptance flow: hot-load a snapshot over
// HTTP, serve 32 concurrent solves over the one shared mmap arena, serve
// a repeat byte-identically from cache, then unload. Run with -race (CI
// does) to make the sharing claims meaningful.
func TestEndToEndServe(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 4, QueueDepth: 64, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hot-load via the HTTP surface.
	status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path))
	if status != http.StatusCreated {
		t.Fatalf("load: status %d body %s", status, body)
	}
	var loaded report.GraphStats
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.N != 300 || !strings.HasPrefix(loaded.GraphDigest, "ncsr1-") {
		t.Fatalf("load record malformed: %+v", loaded)
	}

	// Duplicate names conflict.
	if status, body, _ := post(t, ts.URL+"/v1/graphs", fmt.Sprintf(`{"name":"g","path":%q}`, path)); status != http.StatusConflict {
		t.Fatalf("duplicate load: status %d body %s", status, body)
	}

	// The listing shares the stats schema.
	var listing struct {
		Graphs []report.GraphStats `json:"graphs"`
	}
	if status := get(t, ts.URL+"/v1/graphs", &listing); status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if len(listing.Graphs) != 1 || listing.Graphs[0].GraphDigest != loaded.GraphDigest {
		t.Fatalf("listing malformed: %+v", listing)
	}

	// 32 concurrent solves, mixed engines, distinct seeds, all sharing
	// the one snapshot arena.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engine := "seq"
			if i%2 == 1 {
				engine = "sharded"
			}
			status, body, _ := post(t, ts.URL+"/v1/solve",
				fmt.Sprintf(`{"graph":"g","engine":%q,"seed":%d}`, engine, i+1))
			if status != http.StatusOK {
				t.Errorf("solve seed %d: status %d body %s", i+1, status, body)
				return
			}
			var run report.Run
			if err := json.Unmarshal(body, &run); err != nil {
				t.Errorf("solve seed %d: %v", i+1, err)
				return
			}
			if run.N != 300 || run.GraphDigest != loaded.GraphDigest || run.Error != "" {
				t.Errorf("solve seed %d: malformed run %+v", i+1, run)
			}
		}(i)
	}
	wg.Wait()

	// The repeated request is served from cache byte-identically.
	req := `{"graph":"g","engine":"sharded","epsilon":0.25,"seed":1}`
	s1, b1, c1 := post(t, ts.URL+"/v1/solve", req)
	s2, b2, c2 := post(t, ts.URL+"/v1/solve", req)
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("cache pair: status %d/%d", s1, s2)
	}
	// The first send differs only in default spelling from the seed-1
	// sharded solve above, which already populated the key: both of
	// these may be hits, but the second MUST be.
	if c2 != "hit" {
		t.Fatalf("repeat request not served from cache (headers %q, %q)", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit not byte-identical:\n first: %s\nsecond: %s", b1, b2)
	}

	// Statz sees the traffic.
	var stats report.ServerStats
	if status := get(t, ts.URL+"/statz", &stats); status != http.StatusOK {
		t.Fatal("statz failed")
	}
	if stats.Accepted == 0 || len(stats.Graphs) != 1 || stats.Graphs[0].Solves == 0 {
		t.Fatalf("statz counters missing traffic: %+v", stats)
	}
	if stats.Graphs[0].CacheHits == 0 || stats.Cache.Hits == 0 {
		t.Fatalf("statz lost the cache hit: %+v", stats)
	}
	if status := get(t, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatal("healthz not ok")
	}

	// Unload; subsequent solves 404, the name frees up.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unload: status %d", resp.StatusCode)
	}
	if status, _, _ := post(t, ts.URL+"/v1/solve", req); status != http.StatusNotFound {
		t.Fatalf("solve after unload: status %d, want 404", status)
	}
}

// TestBatchStreamsNDJSONAndHitsCache pins the batch contract: one Run
// line per request item, in order; per-item failures in-band; identical
// items coalesce through the result cache byte-identically.
func TestBatchStreamsNDJSONAndHitsCache(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 2, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	status, body, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","seed":11},{"graph":"missing","seed":1},{"graph":"g","seed":11}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d body %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("batch: %d lines, want 3: %s", len(lines), body)
	}
	var first, second report.Run
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatal(err)
	}
	if first.Error != "" || first.N != 300 {
		t.Fatalf("batch item 0 malformed: %+v", first)
	}
	if !strings.Contains(second.Error, "not registered") {
		t.Fatalf("batch item 1 should fail in-band: %+v", second)
	}
	if !bytes.Equal(lines[0], lines[2]) {
		t.Fatalf("identical batch items not byte-identical:\n%s\n%s", lines[0], lines[2])
	}

	// Oversized and malformed batches fail before admission.
	if status, _, _ := post(t, ts.URL+"/v1/batch", `{"requests":[]}`); status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", status)
	}
	var items []string
	for i := 0; i < 257; i++ {
		items = append(items, `{"graph":"g"}`)
	}
	if status, _, _ := post(t, ts.URL+"/v1/batch", `{"requests":[`+strings.Join(items, ",")+`]}`); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", status)
	}
	if status, _, _ := post(t, ts.URL+"/v1/batch",
		`{"requests":[{"graph":"g","epsilon":0.9}]}`); status != http.StatusBadRequest {
		t.Fatal("invalid epsilon should fail the batch with 400")
	}
}

// TestSolveRequestValidation covers the 4xx surface of /v1/solve.
func TestSolveRequestValidation(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"missing graph", `{}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"nope"}`, http.StatusNotFound},
		{"bad engine", `{"graph":"g","engine":"warp"}`, http.StatusBadRequest},
		{"bad epsilon", `{"graph":"g","epsilon":0.7}`, http.StatusBadRequest},
		{"negative timeout", `{"graph":"g","timeout_ms":-5}`, http.StatusBadRequest},
		{"negative p", `{"graph":"g","p":-0.5}`, http.StatusBadRequest},
		{"p and expected_sample conflict", `{"graph":"g","p":0.5,"expected_sample":12}`, http.StatusBadRequest},
		{"unknown field", `{"graph":"g","epsilonn":0.2}`, http.StatusBadRequest},
		{"not json", `epsilon=0.2`, http.StatusBadRequest},
		{"trailing data", `{"graph":"g"}{"graph":"g","seed":7}`, http.StatusBadRequest},
	} {
		status, body, _ := post(t, ts.URL+"/v1/solve", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d body %s, want %d", tc.name, status, body, tc.status)
		}
	}

	// Validation errors must blame the parameter the client actually
	// sent: a bad p is a sampling-probability error, not one about the
	// expected_sample default it displaced.
	if _, body, _ := post(t, ts.URL+"/v1/solve", `{"graph":"g","p":-0.5}`); !bytes.Contains(body, []byte("probability")) {
		t.Errorf("negative p blamed the wrong parameter: %s", body)
	}
}

// TestCacheKeyCanonicalization: explicitly spelling a default must hit
// the entry an omitted default populated, and changing any parameter
// must miss.
func TestCacheKeyCanonicalization(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: 1 << 20})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}

	if _, _, c := post(t, ts.URL+"/v1/solve", `{"graph":"g"}`); c != "miss" {
		t.Fatalf("first solve: cache %q, want miss", c)
	}
	// Explicit defaults → same canonical key → hit.
	_, _, c := post(t, ts.URL+"/v1/solve",
		`{"graph":"g","engine":"auto","epsilon":0.25,"expected_sample":6,"seed":1,"boost":1}`)
	if c != "hit" {
		t.Fatalf("explicit defaults: cache %q, want hit", c)
	}
	// A timeout does not change the key (deadlines select completion,
	// not content).
	if _, _, c := post(t, ts.URL+"/v1/solve", `{"graph":"g","timeout_ms":60000}`); c != "hit" {
		t.Fatalf("timeout variant: cache %q, want hit", c)
	}
	// Any real parameter change misses — including seed 0, which is a
	// legitimate seed distinct from the default seed 1, not an omitted
	// field.
	for _, body := range []string{
		`{"graph":"g","seed":2}`,
		`{"graph":"g","seed":0}`,
		`{"graph":"g","epsilon":0.3}`,
		`{"graph":"g","engine":"sharded"}`,
		`{"graph":"g","boost":2}`,
	} {
		if _, _, c := post(t, ts.URL+"/v1/solve", body); c != "miss" {
			t.Errorf("%s: cache %q, want miss", body, c)
		}
	}
	// And seed 0 has its own cache identity.
	if _, _, c := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":0}`); c != "hit" {
		t.Errorf("repeated seed-0 request: cache %q, want hit", c)
	}
}

// TestFrontierSpellingSharesSeqCacheEntry: old engine spellings
// canonicalize to the engine that runs them — "frontier" to "seq" and
// "legacy" to "sharded" — so each shares one cache entry and one body
// with its canonical spelling, naming the canonical engine.
func TestFrontierSpellingSharesSeqCacheEntry(t *testing.T) {
	path := writeTestSnapshot(t)
	for _, tc := range []struct{ alias, canonical string }{
		{"frontier", "seq"},
		{"legacy", "sharded"},
	} {
		s := New(Config{Concurrency: 1, CacheBytes: 1 << 20})
		ts := httptest.NewServer(s.Handler())
		if _, err := s.LoadGraph("g", path); err != nil {
			t.Fatal(err)
		}
		s1, b1, c1 := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"`+tc.alias+`","seed":4}`)
		s2, b2, c2 := post(t, ts.URL+"/v1/solve", `{"graph":"g","engine":"`+tc.canonical+`","seed":4}`)
		entries := s.cache.stats().Entries
		ts.Close()
		s.Close()
		if s1 != http.StatusOK || s2 != http.StatusOK {
			t.Fatalf("%s: status %d/%d: %s / %s", tc.alias, s1, s2, b1, b2)
		}
		if c1 != "miss" || c2 != "hit" {
			t.Fatalf("%s: cache %q then %q, want miss then hit", tc.alias, c1, c2)
		}
		if entries != 1 {
			t.Fatalf("%s: %d cache entries, want 1", tc.alias, entries)
		}
		if !bytes.Equal(b1, b2) || !bytes.Contains(b1, []byte(`"engine":"`+tc.canonical+`"`)) {
			t.Fatalf("%s: bodies differ or do not name %s:\n%s\n%s", tc.alias, tc.canonical, b1, b2)
		}
	}
}

// TestDisabledCacheKeepsCountersCoherent: with caching off, neither the
// global nor the per-graph cache counters move — the two views of the
// same traffic must never disagree — while solves still count.
func TestDisabledCacheKeepsCountersCoherent(t *testing.T) {
	path := writeTestSnapshot(t)
	s := New(Config{Concurrency: 1, CacheBytes: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.LoadGraph("g", path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if status, _, c := post(t, ts.URL+"/v1/solve", `{"graph":"g","seed":1}`); status != http.StatusOK || c != "miss" {
			t.Fatalf("solve %d: status %d cache %q", i, status, c)
		}
	}
	st := s.Stats()
	if st.Cache.Hits != 0 || st.Cache.Misses != 0 || st.Cache.Entries != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st.Cache)
	}
	if g := st.Graphs[0]; g.CacheHits != 0 || g.CacheMisses != 0 || g.Solves != 2 {
		t.Fatalf("per-graph counters incoherent with disabled cache: %+v", g)
	}
}
