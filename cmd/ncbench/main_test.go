package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// harness must honour: every named metric, with its unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// quickResults runs every workload in -quick mode and returns the JSON
// result line of each, in workload order.
func quickResults(t *testing.T, extra ...string) []resultJSON {
	t.Helper()
	var out, errs bytes.Buffer
	args := append([]string{"-quick", "-seed", "3", "-workdir", t.TempDir()}, extra...)
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("run %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errs.String())
	}
	var results []resultJSON
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r resultJSON
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(results), len(workloads), out.String())
	}
	return results
}

func checkMetrics(t *testing.T, workload string, r resultJSON, want map[string]string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	for name, unit := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, want %q", workload, name, m.Unit, unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want exactly the %d named in BENCHMARK.json", workload, len(r.Metrics), len(want))
	}
}

// TestQuickRunsReportEveryMetric runs every workload in -quick mode, plain
// and traced, and checks each result line against BENCHMARK.json.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ncbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, ncbench %q", i, sw.Name, workloads[i].name)
		}
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	for i, r := range quickResults(t) {
		checkMetrics(t, workloads[i].name, r, endToEnd)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for i, r := range quickResults(t, "-trace", spans) {
		checkMetrics(t, workloads[i].name, r, perLayer)
	}
	blob, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("span file has %d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for _, ws := range f.Workloads {
		if ws.TracedOps < 1 || len(ws.Traces) <= setupReps {
			t.Errorf("%s: %d traced ops, %d traces kept", ws.Workload, ws.TracedOps, len(ws.Traces))
		}
	}
}

// TestOpListsFollowTheSeed checks that the op lists, schedules and
// warm-up ops are a function of -seed: byte-identical for the same seed,
// different for another.
func TestOpListsFollowTheSeed(t *testing.T) {
	encode := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, w := range workloads {
		a := encode([]any{opList(w, 1, 0, 300), w.warm(1)})
		if b := encode([]any{opList(w, 1, 0, 300), w.warm(1)}); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different op lists", w.name)
		}
		if c := encode([]any{opList(w, 2, 0, 300), w.warm(2)}); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", w.name)
		}
	}

	// The serve-solve schedule: arrivals every 1/6 s, and every block of
	// six ops holds four solves, one refine and one count.
	sched := opList(workloadNamed("serve-solve"), 7, 60, 600)
	counts := map[string]int{}
	for k, op := range sched {
		if want := int64(k) * 1e9 / serveRate; op.DueNS != want {
			t.Fatalf("op %d due at %d ns, want %d", k, op.DueNS, want)
		}
		counts[op.Kind]++
		if (k+1)%6 == 0 && (counts["solve"] != 4*(k+1)/6 || counts["refine"] != (k+1)/6 || counts["count"] != (k+1)/6) {
			t.Fatalf("after %d ops the mix is %v", k+1, counts)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"stray"},
		{"-no-such-flag"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q", args, out.String())
		}
	}
}
