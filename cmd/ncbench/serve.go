package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"nearclique"
	"nearclique/internal/report"
	"nearclique/internal/server"
)

const (
	graphName = "g"
	// opHeader carries a traced op's trace id to the handler timer.
	opHeader = "X-Ncbench-Op"
	// flightEvents is the "flight" window a traced request asks for: the
	// server's cap, so no phase event is cut from the response.
	flightEvents = 512
)

// serveFixture is an in-process server on loopback HTTP, with the
// generated graph kept to check responses against.
type serveFixture struct {
	g       *nearclique.Graph
	planted []bool
	sh      shape
	digest  string
	base    string
	client  *http.Client
	timer   *handlerTimer
	// cacheKeys marks serve-cached: ops repeat the warmed keys and must
	// be cache hits byte-identical to the warm-up response.
	cacheKeys   bool
	warmBodies  map[int][]byte
	warmQuality map[int]quality
}

func setupServe(b *bench, w *workload, tr *trace, root int, cacheKeys bool) (*fixture, error) {
	sh := b.shape(shapeN1e5)
	inst, path, err := b.writeSnapshot(w, sh, tr, root)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	t := time.Now()
	st, err := srv.LoadGraph(graphName, path)
	tr.add("server.load_graph", root, t, time.Now())
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("load graph: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.Remove(path)
		return nil, fmt.Errorf("listen: %w", err)
	}
	timer := &handlerTimer{next: srv.Handler(), pending: map[string]*handlerSpan{}}
	hs := &http.Server{Handler: timer}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: warmClients, MaxIdleConnsPerHost: warmClients, DisableCompression: true}

	sf := &serveFixture{
		g: inst.Graph, planted: plantedSet(sh.n, inst.Planted), sh: sh, digest: st.GraphDigest,
		base: "http://" + ln.Addr().String(), client: &http.Client{Transport: transport, Timeout: time.Minute},
		timer: timer, cacheKeys: cacheKeys, warmBodies: map[int][]byte{}, warmQuality: map[int]quality{},
	}
	return &fixture{
		n: st.N, m: st.M, served: true, exec: sf.exec,
		graphDigest: func() (string, error) {
			if want := inst.Graph.Digest(); st.GraphDigest != want {
				return "", fmt.Errorf("server loaded digest %s, generated %s", st.GraphDigest, want)
			}
			return st.GraphDigest, nil
		},
		close: func() error {
			err := hs.Close()
			if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
				err = errors.Join(err, serr)
			}
			transport.CloseIdleConnections()
			return errors.Join(err, srv.Close(), os.Remove(path))
		},
	}, nil
}

// request renders spec as a /v1/solve or /v1/count body. Traced requests
// ask for the server's phase spans, except on serve-cached, where a
// "flight" request would bypass the cache it measures.
func (f *serveFixture) request(spec opSpec, traced bool) (string, []byte) {
	flight := 0
	if traced && !f.cacheKeys {
		flight = flightEvents
	}
	seed := spec.Seed
	var path string
	var req any
	if spec.Kind == "count" {
		path, req = "/v1/count", server.CountRequest{Graph: graphName, K: countK, Samples: countDraws, Seed: &seed, Flight: flight}
	} else {
		sr := server.SolveRequest{Graph: graphName, ExpectedSample: f.sh.solveSample(), MinSize: f.sh.minSize(), Seed: &seed, Flight: flight}
		if spec.Kind == "refine" {
			sr.Refine = "near"
		}
		path, req = "/v1/solve", sr
	}
	body, _ := json.Marshal(req) // plain structs of strings and numbers always encode
	return path, body
}

func (f *serveFixture) exec(spec opSpec, due time.Time, tr *trace) outcome {
	path, body := f.request(spec, tr != nil)
	out := outcome{tr: tr}
	req, err := http.NewRequest(http.MethodPost, f.base+path, bytes.NewReader(body))
	if err != nil {
		out.err = fmt.Errorf("failed: %w", err)
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	var hs *handlerSpan
	if tr != nil {
		hs = f.timer.expect(tr.ID)
		req.Header.Set(opHeader, tr.ID)
	}
	send := time.Now()
	resp, err := f.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	out.latency = end.Sub(due)
	handler := -1
	if tr != nil {
		root := tr.add("op", -1, due, end)
		tr.add("loadgen.wait", root, due, send)
		if hs.wait(f.timer) {
			handler = tr.add("server.handler", root, hs.start, hs.end)
		}
	}
	switch {
	case err != nil:
		out.err = fmt.Errorf("refused: %w", err)
		return out
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode >= 500:
		out.err = fmt.Errorf("refused: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	case resp.StatusCode == http.StatusNotFound:
		out.err = fmt.Errorf("not-found: HTTP 404: %s", bytes.TrimSpace(data))
		return out
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Errorf("failed: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	out.hit = resp.Header.Get("X-Nearclique-Cache") == "hit"
	if want, ok := f.warmBodies[spec.Key]; f.cacheKeys && ok {
		// A measured serve-cached op: the warm-up response was checked,
		// so a byte-identical hit needs no check of its own.
		if !out.hit || !bytes.Equal(data, want) {
			out.err = fmt.Errorf("check: key %d: want a cache hit identical to the warm-up response (hit=%v)", spec.Key, out.hit)
		}
		out.q = f.warmQuality[spec.Key]
		return out
	}
	if out.hit {
		out.err = fmt.Errorf("check: unexpected cache hit for %s seed %d", spec.Kind, spec.Seed)
		return out
	}
	out.verify = func() (quality, error) {
		q, err := f.verify(spec, data, tr, handler, hs)
		if err == nil && f.cacheKeys {
			f.warmBodies[spec.Key], f.warmQuality[spec.Key] = data, q
		}
		return q, err
	}
	return out
}

// verify checks one response body and, on a traced request, adds the
// server's own spans to the op's trace under the handler span.
func (f *serveFixture) verify(spec opSpec, body []byte, tr *trace, handler int, hs *handlerSpan) (quality, error) {
	if spec.Kind == "count" {
		var run report.CountRun
		if err := json.Unmarshal(body, &run); err != nil {
			return quality{}, fmt.Errorf("check: count body: %w", err)
		}
		f.addServerSpans(tr, handler, hs, run.Trace, "nearclique.Count")
		return quality{}, checkCount(run, f.digest)
	}
	var run report.Run
	if err := json.Unmarshal(body, &run); err != nil {
		return quality{}, fmt.Errorf("check: solve body: %w", err)
	}
	call := "nearclique.Solve"
	if spec.Kind == "refine" {
		call = "nearclique.Solve+refine"
	}
	f.addServerSpans(tr, handler, hs, run.Trace, call)
	switch {
	case run.Error != "":
		return quality{}, fmt.Errorf("failed: %s", run.Error)
	case run.GraphDigest != f.digest:
		return quality{}, fmt.Errorf("check: response digest %s, want %s", run.GraphDigest, f.digest)
	case spec.Kind == "refine" && len(run.Refined) != len(run.Candidates):
		return quality{}, fmt.Errorf("check: %d refined for %d candidates", len(run.Refined), len(run.Candidates))
	}
	var sets [][]int
	for _, c := range run.Candidates {
		sets = append(sets, c.Members)
	}
	best := []int(nil)
	if len(sets) > 0 {
		best = sets[0]
	}
	if spec.Kind == "refine" {
		best = nil
		for _, r := range run.Refined {
			sets = append(sets, r.Members)
			if len(r.Members) > len(best) {
				best = r.Members
			}
		}
	}
	if err := checkNear(f.g, epsilon, sets); err != nil {
		return quality{}, err
	}
	q := quality{near: true, found: len(best) > 0, maxComp: run.MaxComponent}
	for _, s := range run.SampleSizes {
		q.sample += s
	}
	if q.found {
		q.recovered = recovered(f.planted, f.sh.size, best)
	}
	return q, nil
}

// checkCount checks a count: non-negative estimates with finite error
// bounds, and no more cliques than near-cliques (at k=3 and ε=0.25 the
// near-clique count admits no missing edge, so the two are equal).
func checkCount(run report.CountRun, digest string) error {
	finite := func(xs ...float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return false
			}
		}
		return true
	}
	switch {
	case run.Error != "":
		return fmt.Errorf("failed: %s", run.Error)
	case run.GraphDigest != digest:
		return fmt.Errorf("check: count digest %s, want %s", run.GraphDigest, digest)
	case !finite(run.Cliques, run.NearCliques, run.CliquesErrBound, run.NearErrBound):
		return fmt.Errorf("check: count estimates %v/%v ± %v/%v not finite and non-negative",
			run.Cliques, run.NearCliques, run.CliquesErrBound, run.NearErrBound)
	case run.Cliques > run.NearCliques:
		return fmt.Errorf("check: %v cliques exceed %v near-cliques", run.Cliques, run.NearCliques)
	}
	return nil
}

// addServerSpans rebases the span timeline a "flight" response carries
// onto the handler span: the server's trace starts when handleSolve or
// handleCount has decoded the request, a few µs after ServeHTTP began,
// so anchoring at the handler start shifts its spans that much early.
// Phase spans ("solve/v0/explore") go under the engine call's span.
func (f *serveFixture) addServerSpans(tr *trace, handler int, hs *handlerSpan, st *report.Trace, call string) {
	if tr == nil || handler < 0 || st == nil {
		return
	}
	at := func(ns int64) time.Time { return hs.start.Add(time.Duration(ns)) }
	parent := map[string]int{}
	for _, s := range st.Spans {
		if s.Name == "solve" || s.Name == "count" {
			parent[s.Name] = tr.add(call, handler, at(s.StartNS), at(s.StartNS+s.DurNS))
		}
	}
	for _, s := range st.Spans {
		if _, isCall := parent[s.Name]; isCall {
			continue
		}
		outer, phase, _ := strings.Cut(s.Name, "/")
		if p, ok := parent[outer]; ok && phase != "" {
			tr.add("engine."+phase, p, at(s.StartNS), at(s.StartNS+s.DurNS))
		} else {
			tr.add("server."+s.Name, handler, at(s.StartNS), at(s.StartNS+s.DurNS))
		}
	}
}

// handlerTimer wraps the server's handler and times ServeHTTP for
// requests that carry a trace id; others pass straight through.
type handlerTimer struct {
	next    http.Handler
	mu      sync.Mutex
	pending map[string]*handlerSpan
}

type handlerSpan struct {
	id         string
	start, end time.Time
	done       chan struct{}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	h.mu.Lock()
	hs := h.pending[id]
	delete(h.pending, id)
	h.mu.Unlock()
	if hs != nil {
		hs.start, hs.end = start, end
		close(hs.done)
	}
}

// expect registers a traced request before it is sent.
func (h *handlerTimer) expect(id string) *handlerSpan {
	hs := &handlerSpan{id: id, done: make(chan struct{})}
	h.mu.Lock()
	h.pending[id] = hs
	h.mu.Unlock()
	return hs
}

// wait reports whether the handler span was recorded. The response
// reaches the client only after ServeHTTP returns, so the wait is short;
// the timeout covers requests that never reached the handler.
func (hs *handlerSpan) wait(h *handlerTimer) bool {
	select {
	case <-hs.done:
		return true
	case <-time.After(time.Second):
		h.mu.Lock()
		delete(h.pending, hs.id)
		h.mu.Unlock()
		return false
	}
}
