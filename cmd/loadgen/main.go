// Command loadgen is the serving-layer SLO harness: an open-loop
// constant/ramp/burst arrival generator that drives mixed
// solve/batch/refine scenarios against a live nearcliqued daemon and
// emits the measured latency distribution and shed rates as
// BENCH_serve.json (internal/report.ServeMeasurement rows).
//
// Open loop means the arrival schedule is fixed up front and never waits
// for completions — the generator keeps offering load at the scheduled
// rate while responses lag, which is what makes saturation visible: a
// closed-loop client slows itself down exactly when the server is
// struggling and reports flattering latencies (the coordinated-omission
// trap).
//
// Usage:
//
//	loadgen -self -duration 2s -rps 50 -out BENCH_serve.json          # CI smoke
//	loadgen -addr http://127.0.0.1:8372 -graph web -rps 200 -gate
//
// -self hosts an in-process server on a generated planted graph, so one
// command measures the full stack with no daemon to arrange. -gate turns
// the report into a regression gate: the unsaturated constant-rate
// scenario must serve zero 5xx and keep p99 under 5× the cost model's
// predicted solve latency (falling back to -p99-max when the model has
// too few samples to price the request).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nearclique/internal/costmodel"
	"nearclique/internal/gen"
	"nearclique/internal/graphio"
	"nearclique/internal/report"
	"nearclique/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// scenario is one load shape. rateMul scales the base -rps; slots carry
// the per-slot rate multipliers the arrival schedule is built from.
type scenario struct {
	name    string
	pattern string // "constant" | "ramp" | "burst"
	mix     string // weighted request mix, e.g. "solve:4,batch:1,refine:1"
	rateMul float64
}

// scenarios are the built-in shapes, selected by -scenarios. The
// constant-rate solve scenario is deliberately unsaturated at the
// default -rps — it is the one the -gate SLO check applies to.
var scenarios = []scenario{
	{name: "steady-solve", pattern: "constant", mix: "solve:1", rateMul: 1.0},
	{name: "ramp-mixed", pattern: "ramp", mix: "solve:4,batch:1,refine:1", rateMul: 1.0},
	{name: "burst-solve", pattern: "burst", mix: "solve:1", rateMul: 1.5},
}

// scheduleSlots is how many equal time slices a scenario's duration is
// divided into; each slot gets a locally constant arrival rate, which
// expresses all three patterns with one mechanism.
const scheduleSlots = 20

// slotMultipliers returns the per-slot rate multipliers for a pattern.
func slotMultipliers(pattern string) []float64 {
	m := make([]float64, scheduleSlots)
	for i := range m {
		switch pattern {
		case "ramp":
			// 0.25× → 1.75× linearly: starts clearly unsaturated, ends
			// clearly past the constant scenario's rate.
			m[i] = 0.25 + 1.5*float64(i)/float64(scheduleSlots-1)
		case "burst":
			// Alternating pairs of quiet (0.25×) and hot (1.75×) slots —
			// mean exactly 1× so target_rps means the same thing across
			// patterns; the scenario's rateMul sets overall intensity. The
			// queue must absorb each 7×-over-quiet burst and drain in the gap.
			if (i/2)%2 == 1 {
				m[i] = 1.75
			} else {
				m[i] = 0.25
			}
		default: // constant
			m[i] = 1
		}
	}
	return m
}

// arrivals builds the open-loop schedule: offsets from scenario start at
// which requests are issued. Within a slot arrivals are evenly spaced —
// the schedule is fully deterministic, so two runs offer identical load.
func arrivals(duration time.Duration, rps float64, pattern string) []time.Duration {
	slot := duration / scheduleSlots
	var out []time.Duration
	// Cumulative rounding: slot i issues round(cum_i) − issued arrivals,
	// where cum_i is the exact fractional arrival count through slot i.
	// The truncate-and-carry loop this replaces under-delivered the final
	// fraction (cumulative floor, not round) and compounded float error
	// carry by carry; here each slot's deficit is bounded by half an
	// arrival and the total is exactly round(Σ rps·mulᵢ·slot) — low rates
	// still deliver their full rate. round(cum) is nondecreasing because
	// the multipliers are nonnegative, so n is never negative.
	cum := 0.0
	issued := 0
	for i, mul := range slotMultipliers(pattern) {
		cum += rps * mul * slot.Seconds()
		n := int(math.Round(cum)) - issued
		for k := 0; k < n; k++ {
			out = append(out, time.Duration(i)*slot+time.Duration(k)*slot/time.Duration(n))
		}
		issued += n
	}
	return out
}

// mixCycle expands a weighted mix spec ("solve:4,batch:1") into the
// deterministic request-kind cycle arrivals step through.
func mixCycle(mix string) ([]string, error) {
	var cycle []string
	for _, part := range strings.Split(mix, ",") {
		kind, weightStr, found := strings.Cut(strings.TrimSpace(part), ":")
		weight := 1
		if found {
			if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil || weight < 1 {
				return nil, fmt.Errorf("loadgen: bad mix weight %q", part)
			}
		}
		switch kind {
		case "solve", "batch", "refine":
		default:
			return nil, fmt.Errorf("loadgen: unknown request kind %q (want solve|batch|refine)", kind)
		}
		for i := 0; i < weight; i++ {
			cycle = append(cycle, kind)
		}
	}
	if len(cycle) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix %q", mix)
	}
	return cycle, nil
}

// counts are one scenario's response-class tallies.
type counts struct {
	completed atomic.Int64 // 2xx
	shed429   atomic.Int64
	shed504   atomic.Int64
	errors5xx atomic.Int64
	failed    atomic.Int64 // transport-level failures and everything else
}

// runScenario executes one scenario against the target and reduces it to
// a ServeMeasurement row.
func runScenario(client *http.Client, base, graphName string, sc scenario, duration time.Duration, rps float64, seeds int) (report.ServeMeasurement, error) {
	cycle, err := mixCycle(sc.mix)
	if err != nil {
		return report.ServeMeasurement{}, err
	}
	sched := arrivals(duration, rps*sc.rateMul, sc.pattern)
	lat := &latencies{}
	var c counts
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		if sleep := at - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		kind := cycle[i%len(cycle)]
		seed := int64(i % seeds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			issue(client, base, graphName, kind, seed, lat, &c)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	offered := int64(len(sched))
	completed := c.completed.Load()
	shed := c.shed429.Load() + c.shed504.Load()
	p50, p99, p999, mean := lat.summary()
	m := report.ServeMeasurement{
		Scenario:   sc.name,
		Pattern:    sc.pattern,
		Mix:        sc.mix,
		TargetRPS:  rps * sc.rateMul,
		DurationMS: wall.Milliseconds(),
		Offered:    offered,
		Completed:  completed,
		Shed429:    c.shed429.Load(),
		Shed504:    c.shed504.Load(),
		Errors5xx:  c.errors5xx.Load(),
		Failed:     c.failed.Load(),
		P50MS:      p50,
		P99MS:      p99,
		P999MS:     p999,
		MeanMS:     mean,
	}
	if offered > 0 {
		m.ShedRate = float64(shed) / float64(offered)
	}
	if secs := wall.Seconds(); secs > 0 {
		m.Throughput = float64(completed) / secs
	}
	return m, nil
}

// latencies keeps every client-side latency of one scenario. loadgen
// runs offline, so it keeps the raw samples and reports exact
// percentiles rather than histogram bucket bounds.
type latencies struct {
	mu sync.Mutex
	ns []int64
}

func (l *latencies) observe(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

// summary returns the nearest-rank p50, p99 and p999 and the mean, in
// milliseconds; all four are 0 without samples.
func (l *latencies) summary() (p50, p99, p999, mean float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ns) == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(l.ns)
	var sum float64
	for _, ns := range l.ns {
		sum += float64(ns)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return ms(percentileNS(l.ns, 500)), ms(percentileNS(l.ns, 990)), ms(percentileNS(l.ns, 999)),
		sum / float64(len(l.ns)) / 1e6
}

// percentileNS returns the nearest-rank perMille/1000 quantile of the
// non-empty sorted samples: the smallest sample with at least that share
// of all samples at or below it, so always an observed value. The rank
// is computed in integers, so p99.9 of 2000 samples is rank 1998
// exactly.
func percentileNS(sorted []int64, perMille int) int64 {
	r := (perMille*len(sorted) + 999) / 1000
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// issue sends one request of the given kind and files the outcome. Every
// response — success or shed — observes its client-side latency: shed
// responses are real responses with real latencies, and excluding them
// would make an overloaded server look fast.
func issue(client *http.Client, base, graphName, kind string, seed int64, lat *latencies, c *counts) {
	solveBody := func(seed int64, refine string) string {
		b := fmt.Sprintf(`{"graph":%q,"engine":"seq","seed":%d,"timeout_ms":10000`, graphName, seed)
		if refine != "" {
			b += fmt.Sprintf(`,"refine":%q`, refine)
		}
		return b + "}"
	}
	var path, body string
	switch kind {
	case "solve":
		path, body = "/v1/solve", solveBody(seed, "")
	case "refine":
		path, body = "/v1/solve", solveBody(seed, "near")
	case "batch":
		path = "/v1/batch"
		body = fmt.Sprintf(`{"requests":[%s,%s,%s]}`,
			solveBody(seed, ""), solveBody(seed+1, ""), solveBody(seed+2, ""))
	}
	start := time.Now()
	resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		lat.observe(time.Since(start))
		c.failed.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body) // latency includes reading the full body
	resp.Body.Close()
	lat.observe(time.Since(start))
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		c.completed.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		c.shed429.Add(1)
	case resp.StatusCode == http.StatusGatewayTimeout:
		c.shed504.Add(1)
	case resp.StatusCode >= 500:
		c.errors5xx.Add(1)
	default:
		c.failed.Add(1)
	}
}

// selfServe hosts an in-process server on a freshly generated planted
// graph, returning the base URL, the graph name, and a shutdown func.
func selfServe(n, size, concurrency int, stderr io.Writer) (string, string, func(), error) {
	g := gen.PlantedNearClique(n, size, 0.05, 4.0/float64(n), 1).Graph
	dir, err := os.MkdirTemp("", "loadgen")
	if err != nil {
		return "", "", nil, err
	}
	path := filepath.Join(dir, "load.ncsr")
	if err := graphio.WriteSnapshotFile(path, g); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	srv := server.New(server.Config{Concurrency: concurrency, DefaultTimeout: 30 * time.Second})
	st, err := srv.LoadGraph("load", path)
	if err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	fmt.Fprintf(stderr, "loadgen: self-serving %q (n=%d m=%d) on loopback\n", st.Name, st.N, st.M)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		hs.Close()
		srv.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), "load", stop, nil
}

// graphShape looks up the named graph's shape from the target's
// /v1/graphs listing — the features the gate's cost prediction needs.
func graphShape(client *http.Client, base, name string) (n, m int, err error) {
	resp, err := client.Get(base + "/v1/graphs")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var listing struct {
		Graphs []report.GraphStats `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return 0, 0, err
	}
	for _, g := range listing.Graphs {
		if g.Name == name {
			return g.N, g.M, nil
		}
	}
	return 0, 0, fmt.Errorf("loadgen: graph %q not registered on target", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "target daemon base URL (e.g. http://127.0.0.1:8372); empty requires -self")
		self      = fs.Bool("self", false, "host an in-process server on a generated planted graph")
		selfN     = fs.Int("self-n", 2000, "self-mode graph nodes")
		selfSize  = fs.Int("self-size", 60, "self-mode planted near-clique size")
		selfConc  = fs.Int("self-concurrency", 0, "self-mode solve workers (0 = GOMAXPROCS)")
		graphName = fs.String("graph", "", "registered graph name on the target (required with -addr)")
		duration  = fs.Duration("duration", 2*time.Second, "per-scenario run length")
		rps       = fs.Float64("rps", 50, "base arrival rate (scenarios scale it)")
		seeds     = fs.Int("seeds", 8, "distinct solver seeds cycled across requests (controls cache reuse)")
		names     = fs.String("scenarios", "steady-solve,ramp-mixed,burst-solve", "comma-separated scenario names to run")
		out       = fs.String("out", "BENCH_serve.json", "output artifact path (- for stdout)")
		gate      = fs.Bool("gate", false, "fail on SLO violation in the constant-rate scenario (nonzero 5xx, or p99 over budget)")
		p99Max    = fs.Duration("p99-max", 250*time.Millisecond, "absolute p99 ceiling for -gate when the cost model cannot price the request")
		costPath  = fs.String("costmodel", "", "COSTMODEL.json to derive the -gate p99 budget (5x predicted solve latency)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base := strings.TrimSuffix(*addr, "/")
	// Accept the bare host:port form the daemon's -addr flag uses.
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	name := *graphName
	if *self {
		if base != "" {
			fmt.Fprintln(stderr, "loadgen: -self and -addr are mutually exclusive")
			return 2
		}
		var stop func()
		var err error
		base, name, stop, err = selfServe(*selfN, *selfSize, *selfConc, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 1
		}
		defer stop()
	}
	if base == "" || name == "" {
		fmt.Fprintln(stderr, "loadgen: need -self, or both -addr and -graph")
		return 2
	}

	client := &http.Client{Timeout: 15 * time.Second}
	gn, gm, err := graphShape(client, base, name)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}

	// The gate's latency budget: 5× the cost model's predicted solve
	// wall time when the model reliably prices the scenario's request,
	// the absolute -p99-max ceiling otherwise. The prediction covers
	// solver time only, not serving overhead, which is what the 5×
	// headroom absorbs.
	var predictedNS int64
	if *costPath != "" {
		model := costmodel.New()
		if blob, err := os.ReadFile(*costPath); err == nil {
			if err := json.Unmarshal(blob, model); err != nil {
				fmt.Fprintf(stderr, "loadgen: %s: %v\n", *costPath, err)
				return 1
			}
			pred := model.Predict(costmodel.Features{
				Engine: "seq", N: gn, M: gm, Epsilon: 0.25, Sample: 6, Versions: 1,
			})
			if pred.Reliable() {
				predictedNS = int64(pred.NS)
			}
		}
	}

	byName := map[string]scenario{}
	for _, sc := range scenarios {
		byName[sc.name] = sc
	}
	var results []report.ServeMeasurement
	for _, want := range strings.Split(*names, ",") {
		sc, ok := byName[strings.TrimSpace(want)]
		if !ok {
			fmt.Fprintf(stderr, "loadgen: unknown scenario %q\n", want)
			return 2
		}
		fmt.Fprintf(stderr, "loadgen: scenario %s (%s, %s, %.0f rps × %s)\n",
			sc.name, sc.pattern, sc.mix, *rps*sc.rateMul, *duration)
		m, err := runScenario(client, base, name, sc, *duration, *rps, *seeds)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 1
		}
		m.PredictedNS = predictedNS
		fmt.Fprintf(stderr, "loadgen:   offered=%d completed=%d shed=%.1f%% p50=%.2fms p99=%.2fms p999=%.2fms\n",
			m.Offered, m.Completed, m.ShedRate*100, m.P50MS, m.P99MS, m.P999MS)
		results = append(results, m)
	}

	envelope := struct {
		Generated  string                    `json:"generated"`
		GoVersion  string                    `json:"go_version"`
		GOMAXPROCS int                       `json:"gomaxprocs"`
		BaseRPS    float64                   `json:"base_rps"`
		Results    []report.ServeMeasurement `json:"results"`
	}{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BaseRPS:    *rps,
		Results:    results,
	}
	blob, err := json.MarshalIndent(envelope, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	blob = append(blob, '\n')
	if *out == "-" {
		stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	} else {
		fmt.Fprintf(stderr, "loadgen: wrote %s (%d scenarios)\n", *out, len(results))
	}

	if *gate {
		return gateCheck(results, predictedNS, *p99Max, stderr)
	}
	return 0
}

// gateCheck applies the SLO gate to every constant-rate scenario row:
// the unsaturated baseline must serve cleanly (no 5xx, no transport
// failures) and keep p99 under budget. Ramp and burst rows are exempt —
// shedding under deliberate overload is the admission controller doing
// its job, not a regression.
func gateCheck(results []report.ServeMeasurement, predictedNS int64, p99Max time.Duration, stderr io.Writer) int {
	var buf bytes.Buffer
	for _, m := range results {
		if m.Pattern != "constant" {
			continue
		}
		if m.Errors5xx > 0 {
			fmt.Fprintf(&buf, "loadgen: GATE: %s served %d 5xx responses on the unsaturated scenario\n", m.Scenario, m.Errors5xx)
		}
		if m.Failed > 0 {
			fmt.Fprintf(&buf, "loadgen: GATE: %s had %d transport failures\n", m.Scenario, m.Failed)
		}
		budgetMS := float64(p99Max.Milliseconds())
		source := "absolute -p99-max"
		if predictedNS > 0 {
			budgetMS = 5 * float64(predictedNS) / 1e6
			source = "5x cost-model prediction"
		}
		if m.P99MS > budgetMS {
			fmt.Fprintf(&buf, "loadgen: GATE: %s p99 %.2fms exceeds %.2fms budget (%s)\n", m.Scenario, m.P99MS, budgetMS, source)
		}
	}
	if buf.Len() > 0 {
		io.Copy(stderr, &buf)
		return 1
	}
	fmt.Fprintln(stderr, "loadgen: gate passed")
	return 0
}
