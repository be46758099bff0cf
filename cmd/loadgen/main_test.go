package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nearclique/internal/report"
)

// TestArrivalsDeliverFullRate: the fractional-carry schedule offers
// exactly round(rps*duration) arrivals for every pattern — per-slot
// truncation must not under-deliver — and offsets stay in-window and
// nondecreasing.
func TestArrivalsDeliverFullRate(t *testing.T) {
	for _, pattern := range []string{"constant", "ramp", "burst"} {
		for _, rps := range []float64{7, 30, 50.5} {
			dur := 2 * time.Second
			offs := arrivals(dur, rps, pattern)
			want := int(rps * dur.Seconds())
			if got := len(offs); got < want-1 || got > want+1 {
				t.Errorf("%s rps=%v: %d arrivals, want ~%d", pattern, rps, got, want)
			}
			prev := time.Duration(-1)
			for _, off := range offs {
				if off < prev {
					t.Fatalf("%s: arrivals not nondecreasing", pattern)
				}
				if off < 0 || off >= dur {
					t.Fatalf("%s: arrival %v outside [0,%v)", pattern, off, dur)
				}
				prev = off
			}
		}
	}
}

// TestArrivalsPerSlotTable pins the cumulative-rounding schedule slot
// by slot: nᵢ = round(cumᵢ) − issued, cumᵢ the exact fractional arrival
// count through slot i. The truncate-and-carry loop this replaced
// delivered cumulative floor instead — at 0.75 rps over 2s it issued 1
// arrival instead of 2, permanently dropping the final fraction.
func TestArrivalsPerSlotTable(t *testing.T) {
	dur := 2 * time.Second
	slot := dur / scheduleSlots
	perSlot := func(offs []time.Duration) []int {
		counts := make([]int, scheduleSlots)
		for _, off := range offs {
			counts[int(off/slot)]++
		}
		return counts
	}
	cases := []struct {
		name    string
		rps     float64
		pattern string
		want    []int
	}{
		// 0.75 arrivals/slot: cum = 0.75, 1.5, 2.25, 3.0, … rounds to
		// 1, 2, 2, 3, … — the period-4 slot pattern [1,1,0,1], total 15.
		{"constant 7.5rps", 7.5, "constant",
			[]int{1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1}},
		// Quiet/hot pairs at 0.25/1.75 arrivals per slot: each 4-slot
		// period contributes cum += 4, landing [0,1,1,2], total 20.
		{"burst 10rps", 10, "burst",
			[]int{0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2}},
		// 0.08 arrivals/slot — less than one per slot and only 1.6 in
		// total: cum crosses rounding boundaries at slot 6 (0.56) and
		// slot 18 (1.52), so both arrivals are delivered; the old floor
		// semantics issued just ⌊1.6⌋ = 1.
		{"low-rate 0.8rps", 0.8, "constant",
			[]int{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}},
	}
	for _, tc := range cases {
		got := perSlot(arrivals(dur, tc.rps, tc.pattern))
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d slots, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: slot table %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

// TestSlotMultipliersMeanOne: every pattern averages to ~1× the base
// rate so target_rps means the same thing across scenarios (burst runs
// hotter by design via the scenario's rateMul, not the pattern shape).
func TestSlotMultipliersMeanOne(t *testing.T) {
	for _, pattern := range []string{"constant", "ramp", "burst"} {
		muls := slotMultipliers(pattern)
		if len(muls) != scheduleSlots {
			t.Fatalf("%s: %d slots, want %d", pattern, len(muls), scheduleSlots)
		}
		sum := 0.0
		for _, m := range muls {
			sum += m
		}
		if mean := sum / float64(len(muls)); mean < 0.95 || mean > 1.05 {
			t.Errorf("%s: slot multiplier mean %v, want ~1.0", pattern, mean)
		}
	}
}

func TestMixCycle(t *testing.T) {
	cycle, err := mixCycle("solve:4,batch:1,refine:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 6 {
		t.Fatalf("cycle length %d, want 6", len(cycle))
	}
	tally := map[string]int{}
	for _, k := range cycle {
		tally[k]++
	}
	if tally["solve"] != 4 || tally["batch"] != 1 || tally["refine"] != 1 {
		t.Errorf("cycle weights %v, want solve:4 batch:1 refine:1", tally)
	}
	for _, bad := range []string{"", "warp:1", "solve:0", "solve:x"} {
		if _, err := mixCycle(bad); err == nil {
			t.Errorf("mix %q accepted, want error", bad)
		}
	}
}

// TestRunSelfSmoke is the harness's own end-to-end: spin an in-process
// server over a tiny planted graph, run all three built-in scenarios for
// a fraction of a second with the gate armed, and check the emitted
// BENCH_serve.json artifact.
func TestRunSelfSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes ~2s of wall time")
	}
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-self", "-self-n", "300", "-self-size", "60", "-self-concurrency", "2",
		"-duration", "600ms", "-rps", "20", "-out", out, "-gate",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Generated  string `json:"generated"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		BaseRPS    float64
		Results    []struct {
			Scenario   string  `json:"scenario"`
			Pattern    string  `json:"pattern"`
			Offered    int64   `json:"offered"`
			Completed  int64   `json:"completed"`
			Errors5xx  int64   `json:"errors_5xx"`
			Failed     int64   `json:"failed"`
			Throughput float64 `json:"throughput_rps"`
			P50MS      float64 `json:"p50_ms"`
			P99MS      float64 `json:"p99_ms"`
			P999MS     float64 `json:"p999_ms"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, raw)
	}
	if len(artifact.Results) != 3 {
		t.Fatalf("artifact has %d scenarios, want 3 (steady-solve, ramp-mixed, burst-solve)", len(artifact.Results))
	}
	seen := map[string]bool{}
	for _, r := range artifact.Results {
		seen[r.Scenario] = true
		if r.Offered <= 0 {
			t.Errorf("%s: offered %d requests", r.Scenario, r.Offered)
		}
		if r.Completed <= 0 {
			t.Errorf("%s: completed %d requests", r.Scenario, r.Completed)
		}
		if r.Errors5xx != 0 || r.Failed != 0 {
			t.Errorf("%s: errors_5xx=%d failed=%d on an unsaturated self-serve run", r.Scenario, r.Errors5xx, r.Failed)
		}
		if r.Completed > 0 && (r.P50MS <= 0 || r.P50MS > r.P99MS || r.P99MS > r.P999MS) {
			t.Errorf("%s: percentiles not ordered: p50=%v p99=%v p999=%v", r.Scenario, r.P50MS, r.P99MS, r.P999MS)
		}
	}
	for _, want := range []string{"steady-solve", "ramp-mixed", "burst-solve"} {
		if !seen[want] {
			t.Errorf("artifact missing scenario %q; got %v", want, seen)
		}
	}
	if artifact.GoVersion == "" || artifact.GOMAXPROCS <= 0 {
		t.Errorf("artifact missing environment envelope: %+v", artifact)
	}
}

// TestGateFailsOnServerErrors: the gate must refuse an artifact whose
// constant-rate rows carry 5xx or transport failures or blow the p99
// budget, pass clean rows, and ignore non-constant rows (ramp/burst
// shedding is the admission controller doing its job).
func TestGateFailsOnServerErrors(t *testing.T) {
	row := func(pattern string, errs, failed int64, p99 float64) report.ServeMeasurement {
		return report.ServeMeasurement{Pattern: pattern, Errors5xx: errs, Failed: failed, P99MS: p99, Completed: 10}
	}
	for _, tc := range []struct {
		name string
		rows []report.ServeMeasurement
		want int
	}{
		{"clean", []report.ServeMeasurement{row("constant", 0, 0, 5)}, 0},
		{"errors", []report.ServeMeasurement{row("constant", 1, 0, 5)}, 1},
		{"failed", []report.ServeMeasurement{row("constant", 0, 2, 5)}, 1},
		{"slow", []report.ServeMeasurement{row("constant", 0, 0, 10_000)}, 1},
		{"burst-shed-ok", []report.ServeMeasurement{row("burst", 3, 0, 5)}, 0},
	} {
		var stderr bytes.Buffer
		got := gateCheck(tc.rows, 0, 250*time.Millisecond, &stderr)
		if got != tc.want {
			t.Errorf("%s: gate returned %d, want %d (stderr: %s)", tc.name, got, tc.want, stderr.String())
		}
	}
}

// TestLatencySummaryExactPercentiles pins loadgen's client percentiles
// to nearest rank over the raw samples, on sample lists whose
// percentiles are no power of two (the bounds a log2 histogram would
// report): 1..2000 ms observed in scrambled order, and seven samples
// with a repeat.
func TestLatencySummaryExactPercentiles(t *testing.T) {
	cases := []struct {
		ms                   []int
		p50, p99, p999, mean float64
	}{
		{ms: nil},
		{ms: []int{3, 1, 4, 1, 5, 9, 2}, p50: 3, p99: 9, p999: 9, mean: 25.0 / 7},
		{ms: make([]int, 2000), p50: 1000, p99: 1980, p999: 1998, mean: 1000.5},
	}
	for i := range cases[2].ms {
		cases[2].ms[i] = (i*7919)%2000 + 1 // 7919 is coprime to 2000, so this permutes 1..2000
	}
	for _, c := range cases {
		var l latencies
		for _, ms := range c.ms {
			l.observe(time.Duration(ms) * time.Millisecond)
		}
		p50, p99, p999, mean := l.summary()
		if p50 != c.p50 || p99 != c.p99 || p999 != c.p999 || math.Abs(mean-c.mean) > 1e-9 {
			t.Errorf("%d samples: p50/p99/p999/mean = %v/%v/%v/%v, want %v/%v/%v/%v",
				len(c.ms), p50, p99, p999, mean, c.p50, c.p99, c.p999, c.mean)
		}
	}
}
