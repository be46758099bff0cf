package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchQuickEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	bySuffix := map[string]bool{}
	for _, r := range rep.Results {
		if r.WallNS <= 0 {
			t.Fatalf("degenerate result %+v", r)
		}
		// Count rows have no simulated rounds; every other row ran the
		// simulator and must report its protocol counters.
		if r.Engine != "shadow" && (r.Rounds <= 0 || r.Frames <= 0) {
			t.Fatalf("degenerate result %+v", r)
		}
		bySuffix[r.Workload+"/"+r.Engine] = true
	}
	for _, want := range []string{
		"gossip/er/sharded", "find/planted-n5000/sharded", "count/planted-n5000/shadow",
	} {
		if !bySuffix[want] {
			t.Fatalf("missing workload %s in %v", want, bySuffix)
		}
	}
}

func TestBenchBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("bad flag accepted")
	}
}

// TestBenchFlags: the tool has the simulator grid and the cost-model
// gates, and no other mode.
func TestBenchFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	var got []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	want := []string{"-costcheck", "-costfit", "-model", "-o", "-quick", "-seed", "-version"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags %v, want %v", got, want)
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "bench") {
		t.Fatalf("version output %q", out.String())
	}
}

func TestBenchCountQuickEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	results, err := countBenchmarks(io.Discard, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want one row per k in {3,4,5}, got %d", len(results))
	}
	for _, r := range results {
		if r.Engine != "shadow" || r.K < 3 || r.CountSamples <= 0 {
			t.Fatalf("malformed count row %+v", r)
		}
		if r.WallNS <= 0 || r.Cliques < 0 || r.NearCliques < r.Cliques || r.SamplesPerSec <= 0 {
			t.Fatalf("degenerate count row %+v", r)
		}
		if r.GraphDigest == "" {
			t.Fatalf("count row missing graph digest: %+v", r)
		}
	}
}
