package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// decodeSolveRequest decodes data as a /v1/solve body, through the
// handlers' own strict decoder.
func decodeSolveRequest(data []byte) (SolveRequest, bool) {
	var req SolveRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(data))
	err := decodeJSON(httptest.NewRecorder(), r, &req)
	return req, err == nil
}

// FuzzSolveRequestCacheKey pins request canonicalization on arbitrary
// bodies: resolve never panics, and a resolved request re-spelled with
// every parameter explicit resolves to a byte-equal cache key — the
// property that lets differently spelled requests share one cache entry.
func FuzzSolveRequestCacheKey(f *testing.F) {
	for _, body := range []string{
		`{"graph":"g"}`,
		`{"graph":"g","engine":"auto","epsilon":0.25,"expected_sample":6,"seed":1,"boost":1}`,
		`{"graph":"g","timeout_ms":60000}`,
		`{"graph":"g","seed":2}`,
		`{"graph":"g","seed":0}`,
		`{"graph":"g","epsilon":0.3}`,
		`{"graph":"g","engine":"sharded"}`,
		`{"graph":"g","boost":2}`,
		`{"graph":"g","engine":"frontier","p":0.01,"refine":"quasi:0.60,moves=512","flight":9999}`,
		`{"graph":"g","p":0.5,"expected_sample":6}`,
		`{"graph":"g","epsilon":-0,"min_size":-3,"max_rounds":7}`,
	} {
		f.Add([]byte(body))
	}
	var cfg Config
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ok := decodeSolveRequest(data)
		if !ok {
			return
		}
		p, err := req.resolve(cfg)
		if err != nil {
			return
		}
		key := cacheKey("digest", p)

		seed := p.seed
		full, err := json.Marshal(SolveRequest{
			Graph:          req.Graph,
			Engine:         p.engine.String(),
			Epsilon:        p.eps,
			ExpectedSample: p.sample,
			P:              p.p,
			Seed:           &seed,
			Boost:          p.boost,
			MinSize:        p.minSize,
			MaxRounds:      p.maxRounds,
			Refine:         p.refine,
			Flight:         p.flight,
		})
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", p, err)
		}
		again, ok := decodeSolveRequest(full)
		if !ok {
			t.Fatalf("explicit spelling %s of %q does not decode", full, data)
		}
		q, err := again.resolve(cfg)
		if err != nil {
			t.Fatalf("%q resolves, but its explicit spelling %s fails: %v", data, full, err)
		}
		if got := cacheKey("digest", q); got != key {
			t.Fatalf("%q keys %q, but its explicit spelling %s keys %q", data, key, full, got)
		}
	})
}

// decodeCountRequest decodes data as a /v1/count body, through the
// handlers' own strict decoder.
func decodeCountRequest(data []byte) (CountRequest, bool) {
	var req CountRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/count", bytes.NewReader(data))
	err := decodeJSON(httptest.NewRecorder(), r, &req)
	return req, err == nil
}

// FuzzCountRequestCacheKey is the counting twin of
// FuzzSolveRequestCacheKey: resolve never panics, and a resolved count
// request re-spelled with every parameter explicit resolves to a
// byte-equal countCacheKey.
func FuzzCountRequestCacheKey(f *testing.F) {
	for _, body := range []string{
		`{"graph":"g"}`,
		`{"graph":"g","k":4,"epsilon":0.25,"samples":4096,"confidence":0.99,"seed":1}`,
		`{"graph":"g","timeout_ms":60000}`,
		`{"graph":"g","seed":0}`,
		`{"graph":"g","seed":-7,"k":3}`,
		`{"graph":"g","epsilon":2.5e-1,"confidence":0.990}`,
		`{"graph":"g","samples":-1,"k":99}`,
		`{"graph":"g","k":5,"samples":512,"flight":9999}`,
		`{"graph":"g","timeout_ms":-1}`,
		`{"graph":"g","epsilon":-0,"confidence":1.5}`,
	} {
		f.Add([]byte(body))
	}
	var cfg Config
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ok := decodeCountRequest(data)
		if !ok {
			return
		}
		p, err := req.resolve(cfg)
		if err != nil {
			return
		}
		key := countCacheKey("digest", p)

		seed := p.seed
		full, err := json.Marshal(CountRequest{
			Graph:      req.Graph,
			K:          p.k,
			Epsilon:    p.eps,
			Samples:    p.samples,
			Confidence: p.confidence,
			Seed:       &seed,
			Flight:     p.flight,
		})
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", p, err)
		}
		again, ok := decodeCountRequest(full)
		if !ok {
			t.Fatalf("explicit spelling %s of %q does not decode", full, data)
		}
		q, err := again.resolve(cfg)
		if err != nil {
			t.Fatalf("%q resolves, but its explicit spelling %s fails: %v", data, full, err)
		}
		if got := countCacheKey("digest", q); got != key {
			t.Fatalf("%q keys %q, but its explicit spelling %s keys %q", data, key, full, got)
		}
	})
}
