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
		if r.WallNS <= 0 || r.Rounds <= 0 || r.Frames <= 0 {
			t.Fatalf("degenerate result %+v", r)
		}
		bySuffix[r.Workload+"/"+r.Engine] = true
	}
	for _, want := range []string{
		"gossip/er/sharded", "find/planted-n5000/sharded",
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

// TestBenchLoadQuickEmitsValidJSON: -load must emit a text and a snap
// record per grid point, with matching graph shapes and the snapshot
// loading strictly faster than the text parse.
func TestBenchLoadQuickEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "graph.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-load", "-quick", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) == 0 || len(rep.Results)%2 != 0 {
		t.Fatalf("want text/snap record pairs, got %d records", len(rep.Results))
	}
	shapes := map[string][2]int{}
	textNS := map[string]int64{}
	for _, r := range rep.Results {
		if r.WallNS <= 0 || r.N <= 0 || r.M <= 0 || r.FileBytes <= 0 {
			t.Fatalf("degenerate result %+v", r)
		}
		shape := [2]int{r.N, r.M}
		if prev, ok := shapes[r.Workload]; ok && prev != shape {
			t.Fatalf("%s: formats loaded different graphs: %v vs %v", r.Workload, prev, shape)
		}
		shapes[r.Workload] = shape
		switch r.Format {
		case "text":
			textNS[r.Workload] = r.WallNS
		case "snap":
			if r.SpeedupVsText <= 1 {
				t.Fatalf("%s: snapshot load not faster than text (%.2fx)", r.Workload, r.SpeedupVsText)
			}
			if r.Allocs > 1000 {
				t.Fatalf("%s: snapshot open allocated %d times; the path is supposed to be O(1) allocations", r.Workload, r.Allocs)
			}
		default:
			t.Fatalf("unknown format %q", r.Format)
		}
	}
	for wl, ns := range textNS {
		if ns == 0 {
			t.Fatalf("%s: missing text record", wl)
		}
	}
}

// TestBenchRefineQuickEmitsValidJSON: -refine must emit one aggregate
// record per planted workload, with refined quality never below base
// quality — the executable form of the base-vs-refined tracking axis.
func TestBenchRefineQuickEmitsValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	out := filepath.Join(t.TempDir(), "refine.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-refine", "-quick", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep RefineReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range rep.Results {
		if r.Seeds <= 0 || r.N <= 0 || r.M <= 0 || r.Refine == "" {
			t.Fatalf("degenerate result %+v", r)
		}
		if r.MeanRefinedDensity < r.MeanBaseDensity {
			t.Fatalf("%s: refined density below base: %+v", r.Workload, r)
		}
		if r.MeanRefinedSize < r.MeanBaseSize {
			t.Fatalf("%s: refined size below base: %+v", r.Workload, r)
		}
		if r.RecoveredPct < r.BaseRecoveredPct {
			t.Fatalf("%s: refined recovery below base: %+v", r.Workload, r)
		}
		if r.ImprovedPct < 90 {
			t.Fatalf("%s: improved on only %.0f%% of seeds, want ≥ 90%%", r.Workload, r.ImprovedPct)
		}
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

// TestBenchSearchBatchQuickMeasuresMemory: every -search-batch row
// carries the allocation count of its seed loop; a zero there would mean
// "not measured", which a BENCH row must never say.
func TestBenchSearchBatchQuickMeasuresMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	results, err := searchBatchBenchmarks(io.Discard, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no search rows")
	}
	for _, r := range results {
		if r.WallNS <= 0 || r.Searches <= 0 || r.Probes <= 0 {
			t.Fatalf("degenerate search row %+v", r)
		}
		if r.Allocs == 0 {
			t.Fatalf("%s/%s: allocs not measured: %+v", r.Workload, r.Engine, r)
		}
	}
}
