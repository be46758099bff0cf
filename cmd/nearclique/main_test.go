package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nearclique"
	"nearclique/internal/report"
)

func edgeList(t *testing.T) string {
	t.Helper()
	inst, err := nearclique.Generate(nearclique.GenSpec{Family: "clique", N: 100, Size: 35, P: 0.03, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nearclique.WriteGraph(&buf, inst.Graph); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunSequential(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-eps", "0.25", "-s", "7", "-seed", "3", "-boost", "3"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "near-clique(s)") {
		t.Fatalf("missing summary: %s", out.String())
	}
}

func TestRunDistributed(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-engine", "sharded", "-eps", "0.25", "-s", "5", "-q"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "rounds=") {
		t.Fatalf("distributed mode missing metrics: %s", out.String())
	}
}

func TestRunRefine(t *testing.T) {
	// Human-readable output carries the refined summary and per-candidate
	// lines; the base candidate listing stays untouched.
	var out, errOut bytes.Buffer
	code := run([]string{"-eps", "0.25", "-s", "7", "-seed", "3", "-refine", "near"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "refined[near]") || !strings.Contains(out.String(), "refined: size=") {
		t.Fatalf("missing refined output: %s", out.String())
	}

	// -json emits the refine fields of the shared report schema.
	out.Reset()
	code = run([]string{"-eps", "0.25", "-s", "7", "-seed", "3", "-refine", "quasi:0.90,moves=512", "-json"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("json exit %d: %s", code, errOut.String())
	}
	var rec struct {
		Refine      string  `json:"refine"`
		RefinedSize int     `json:"refined_size"`
		RefinedDen  float64 `json:"refined_density"`
		Refined     []struct {
			Size        int     `json:"size"`
			BaseDensity float64 `json:"base_density"`
			Density     float64 `json:"density"`
		} `json:"refined"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("parse -json output: %v", err)
	}
	if rec.Refine != "quasi:0.9" { // canonicalized spelling
		t.Fatalf("refine spec %q, want the canonical quasi:0.9", rec.Refine)
	}
	if rec.RefinedSize == 0 || len(rec.Refined) == 0 {
		t.Fatalf("refined fields empty: %s", out.String())
	}
	for i, r := range rec.Refined {
		if r.Density < r.BaseDensity {
			t.Fatalf("refined[%d] density decreased: %v < %v", i, r.Density, r.BaseDensity)
		}
	}

	// A malformed spec fails at flag validation, before any solving.
	if code := run([]string{"-refine", "bogus"}, strings.NewReader("0 1\n"), &out, &errOut); code != 2 {
		t.Fatalf("bad refine spec exited %d, want 2", code)
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, strings.NewReader("not an edge list"), &out, &errOut); code == 0 {
		t.Fatal("bad input accepted")
	}
	for _, eps := range []string{"0.9", "NaN", "+Inf"} {
		if code := run([]string{"-eps", eps}, strings.NewReader("0 1\n"), &out, &errOut); code == 0 {
			t.Fatalf("bad epsilon %s accepted", eps)
		}
	}
	if code := run([]string{"nonexistent-file.edges"}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("missing file accepted")
	}
}

func TestRunEngineFlag(t *testing.T) {
	for _, engine := range []string{"auto", "seq", "sharded", "legacy", "async"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-engine", engine, "-eps", "0.25", "-s", "5", "-q"},
			strings.NewReader(edgeList(t)), &out, &errOut)
		if code != 0 {
			t.Fatalf("engine %s: exit %d: %s", engine, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-engine", "quantum"}, strings.NewReader("0 1\n"), &out, &errOut); code != 2 {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-engine", "sharded", "-eps", "0.25", "-s", "7", "-seed", "3", "-json"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var rec struct {
		Engine     string `json:"engine"`
		N          int    `json:"n"`
		Rounds     int    `json:"rounds"`
		WallNS     int64  `json:"wall_ns"`
		Candidates []struct {
			Size    int     `json:"size"`
			Density float64 `json:"density"`
		} `json:"candidates"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rec.Engine != "sharded" || rec.N != 100 || rec.Rounds == 0 || rec.Error != "" {
		t.Fatalf("unexpected record: %+v", rec)
	}
}

func TestRunTimeoutProducesContextError(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-engine", "sharded", "-timeout", "1ns", "-json"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 1 {
		t.Fatalf("timed-out run exited %d, want 1; stderr: %s", code, errOut.String())
	}
	var rec struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if !strings.Contains(rec.Error, "deadline") {
		t.Fatalf("timeout error missing from record: %+v", rec)
	}
}

func TestRunDistributedAsync(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-engine", "async", "-eps", "0.25", "-s", "5", "-q"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "safes=") {
		t.Fatalf("async mode missing synchronizer metrics: %s", out.String())
	}
}

// TestRunAutoDetectsInputFormats: the same graph as a plain edge list, a
// gzip-compressed edge list, and a mmapped `.ncsr` snapshot must produce
// identical output through the file-argument path, and the snapshot must
// also work piped through stdin.
func TestRunAutoDetectsInputFormats(t *testing.T) {
	inst, err := nearclique.Generate(nearclique.GenSpec{Family: "clique", N: 100, Size: 35, P: 0.03, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	textPath := filepath.Join(dir, "g.edges")
	var text bytes.Buffer
	if err := nearclique.WriteGraph(&text, inst.Graph); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	gzPath := filepath.Join(dir, "g.txt.gz")
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, "g.ncsr")
	var snap bytes.Buffer
	if err := nearclique.WriteSnapshot(&snap, inst.Graph); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{"-eps", "0.25", "-s", "7", "-seed", "3"}
	var want string
	for i, path := range []string{textPath, gzPath, snapPath} {
		var out, errOut bytes.Buffer
		code := run(append(append([]string(nil), args...), path), strings.NewReader(""), &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", path, code, errOut.String())
		}
		if i == 0 {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("%s: output differs from plain edge list", path)
		}
	}
	var out, errOut bytes.Buffer
	if code := run(args, bytes.NewReader(snap.Bytes()), &out, &errOut); code != 0 {
		t.Fatalf("snapshot on stdin: exit %d: %s", code, errOut.String())
	}
	if out.String() != want {
		t.Fatal("snapshot on stdin: output differs")
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "nearclique") {
		t.Fatalf("version output %q", out.String())
	}
}

func TestRunCountText(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-count", "3", "-samples", "512", "-seed", "5"},
		strings.NewReader(edgeList(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "cliques:") || !strings.Contains(s, "near-cliques:") || !strings.Contains(s, "k=3") {
		t.Fatalf("missing counting summary: %s", s)
	}
}

func TestRunCountJSONDeterministic(t *testing.T) {
	input := edgeList(t)
	args := []string{"-count", "4", "-samples", "1024", "-confidence", "0.95", "-seed", "11", "-json"}
	var a, b, errOut bytes.Buffer
	if code := run(args, strings.NewReader(input), &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run(args, strings.NewReader(input), &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	// The two runs agree bit-for-bit on everything but the wall clock.
	var ra, rb report.CountRun
	if err := json.Unmarshal(a.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	ra.WallNS, rb.WallNS = 0, 0
	if ra != rb {
		t.Fatalf("two identical -count runs emitted different estimates:\n%+v\n%+v", ra, rb)
	}
	var rec struct {
		Engine     string  `json:"engine"`
		K          int     `json:"k"`
		Samples    int     `json:"samples"`
		Confidence float64 `json:"confidence"`
		Cliques    float64 `json:"cliques"`
		Bound      float64 `json:"cliques_err_bound"`
		Near       float64 `json:"near_cliques"`
		Error      string  `json:"error"`
	}
	if err := json.Unmarshal(a.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Engine != "shadow" || rec.K != 4 || rec.Samples != 1024 || rec.Confidence != 0.95 || rec.Error != "" {
		t.Fatalf("count record malformed: %+v", rec)
	}
	if rec.Cliques < 0 || rec.Near < rec.Cliques {
		t.Fatalf("count estimates malformed: %+v", rec)
	}
}

func TestRunCountFlagValidation(t *testing.T) {
	// -samples/-confidence without -count fail loudly.
	var out, errOut bytes.Buffer
	if code := run([]string{"-samples", "64"}, strings.NewReader(edgeList(t)), &out, &errOut); code != 2 {
		t.Fatalf("-samples without -count: exit %d, want 2 (%s)", code, errOut.String())
	}
	// Out-of-range k fails at option validation.
	errOut.Reset()
	if code := run([]string{"-count", "1"}, strings.NewReader(edgeList(t)), &out, &errOut); code != 2 {
		t.Fatalf("-count 1: exit %d, want 2 (%s)", code, errOut.String())
	}
	// A non-counting engine refuses the count path.
	errOut.Reset()
	if code := run([]string{"-count", "3", "-engine", "sharded"}, strings.NewReader(edgeList(t)), &out, &errOut); code != 1 {
		t.Fatalf("-count -engine sharded: exit %d, want 1 (%s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "shadow") {
		t.Fatalf("engine refusal not surfaced: %s", errOut.String())
	}
}
