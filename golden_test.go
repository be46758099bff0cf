package nearclique_test

// Golden-transcript regression tests: small fixture graphs live under
// testdata/golden/ next to the SHA-256 digests of their solve
// transcripts. The test re-solves every fixture and compares digests, so
// a graph-layer change that silently perturbs neighbor iteration order —
// the repo's determinism contract requires sorted-ascending adjacency
// everywhere — fails loudly with the fixture and configuration named,
// instead of surfacing later as a cache-poisoning or parity mystery.
//
// After an *intentional* output change (a new protocol feature, a
// deliberate transcript revision), regenerate with:
//
//	go test -run TestGoldenTranscripts -update-golden ./
//
// and review the digests.json diff like any other golden file.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nearclique"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/digests.json from the current outputs")

const goldenDir = "testdata/golden"

// goldenConfigs are the pinned solve configurations. Keep keys stable:
// they name digests.json entries.
type goldenConfig struct {
	key     string
	engine  nearclique.Engine
	boost   int
	refine  string
	epsilon float64
}

func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{key: "seq-eps25-boost2", engine: nearclique.EngineSequential, boost: 2, epsilon: 0.25},
		{key: "sharded-eps25-boost2", engine: nearclique.EngineSharded, boost: 2, epsilon: 0.25},
		{key: "seq-eps25-refine-near", engine: nearclique.EngineSequential, boost: 1, epsilon: 0.25, refine: "near"},
		// "frontier" is an old spelling of seq; the key stays so the
		// committed digests keep their names.
		{key: "frontier-eps25-boost2", engine: nearclique.EngineSequential, boost: 2, epsilon: 0.25},
	}
}

// goldenFixtures returns the committed fixture files (every format the
// loader dispatches on: plain edge lists and a binary snapshot).
func goldenFixtures(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(goldenDir, "*.edges"))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(goldenDir, "*.ncsr"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := append(matches, snaps...)
	sort.Strings(fixtures)
	if len(fixtures) == 0 {
		t.Fatalf("no fixtures under %s", goldenDir)
	}
	return fixtures
}

// labelsOf reads the n nodes' output registers through Result.Label:
// the dense vector the digests were first recorded over.
func labelsOf(res *nearclique.Result, n int) []int64 {
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = res.Label(v)
	}
	return labels
}

// goldenTranscript renders the full canonical transcript of a run —
// labels, sample sizes, candidates with members and subsets, and any
// refinement output. Everything that downstream consumers (cache,
// parity, report) treat as the run's identity is in here.
func goldenTranscript(res *nearclique.Result, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "labels=%v\nsamples=%v\nmaxcomp=%d\n", labelsOf(res, n), res.SampleSizes, res.MaxComponent)
	for _, c := range res.Candidates {
		fmt.Fprintf(&b, "cand label=%d ver=%d members=%v x=%v density=%.9f\n",
			c.Label, c.Version, c.Members, c.SubsetX, c.Density)
	}
	if res.RefineSpec != "" {
		fmt.Fprintf(&b, "refine=%s best=%d/%.9f moves=%d\n",
			res.RefineSpec, res.Metrics.RefinedSize, res.Metrics.RefinedDensity, res.Metrics.RefineMoves)
		for _, r := range res.Refined {
			fmt.Fprintf(&b, "refined label=%d seed=%d members=%v density=%.9f moves=%d\n",
				r.Label, r.SeedVertex, r.Members, r.Density, r.Moves)
		}
	}
	return b.String()
}

func TestGoldenTranscripts(t *testing.T) {
	digestPath := filepath.Join(goldenDir, "digests.json")
	want := map[string]string{}
	if data, err := os.ReadFile(digestPath); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parse %s: %v", digestPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("read %s: %v (run with -update-golden to create it)", digestPath, err)
	}

	got := map[string]string{}
	for _, fixture := range goldenFixtures(t) {
		g, closeGraph, err := nearclique.LoadGraph(fixture)
		if err != nil {
			t.Fatalf("load fixture %s: %v", fixture, err)
		}
		for _, cfg := range goldenConfigs() {
			key := filepath.Base(fixture) + "/" + cfg.key
			opts := []nearclique.Option{
				nearclique.WithEngine(cfg.engine),
				nearclique.WithEpsilon(cfg.epsilon),
				nearclique.WithExpectedSample(6),
				nearclique.WithSeed(3),
				nearclique.WithVersions(cfg.boost),
			}
			if cfg.refine != "" {
				spec, err := nearclique.ParseRefineSpec(cfg.refine)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, nearclique.WithRefine(spec))
			}
			s, err := nearclique.New(opts...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			res, err := s.Solve(context.Background(), g)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got[key] = fmt.Sprintf("%x", sha256.Sum256([]byte(goldenTranscript(res, g.N()))))
		}
		if err := closeGraph(); err != nil {
			t.Fatalf("close fixture %s: %v", fixture, err)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", digestPath, len(got))
		return
	}

	for key, digest := range got {
		switch wantDigest, ok := want[key]; {
		case !ok:
			t.Errorf("fixture %s: no golden digest recorded (run -update-golden and commit the diff)", key)
		case digest != wantDigest:
			t.Errorf("fixture %s: transcript digest %s, want %s — a graph- or protocol-layer "+
				"change perturbed this run (neighbor iteration order must stay sorted ascending); "+
				"if the change is intentional, regenerate with -update-golden", key, digest, wantDigest)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("golden digest %s has no matching fixture/config (stale digests.json?)", key)
		}
	}
}
