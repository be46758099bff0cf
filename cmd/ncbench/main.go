// Command ncbench is the repository's benchmark: four workloads that
// drive the public nearclique API and an in-process nearcliqued server
// over loopback HTTP, check every output, and print each end-to-end
// metric with its unit and sample count. A traced run (-trace) adds a
// second pass with spans around every call into a layer and prints the
// per-layer metrics, reconciled against end-to-end time. README.md
// describes the workloads and metrics.
//
// Run it from cmd/ncbench, or through run.sh from the repository root:
//
//	go run . -seed 1                        # all four workloads, 20 s passes
//	go run . -workload search-n1e5 -trace 1 # plus a traced pass
//	go run . -quick                         # n=2000 graphs, 1 s passes
//
// The last line of each workload's output is a JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// -trace the per-layer ones. The exit code is non-zero when any output
// check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Int64("seed", 1, "workload seed: every graph, request seed and op list derives from it")
		seconds  = fs.Int("seconds", 20, "measured seconds per pass (default 1 with -quick)")
		traceArg = fs.String("trace", "0", "0: plain pass only; 1 or FILE: add a traced pass and write its spans to FILE (1: <workdir>/spans.json)")
		quick    = fs.Bool("quick", false, "use n=2000 graphs and 1 s passes")
		workdir  = fs.String("workdir", ".bench_build/ncbench", "directory for graph snapshots and the default span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ncbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *quick && !secondsSet {
		*seconds = 1
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "ncbench: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w := workloadNamed(strings.TrimSpace(name))
			if w == nil {
				fmt.Fprintf(stderr, "ncbench: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}
	spanPath := *traceArg
	switch spanPath {
	case "0", "":
		spanPath = ""
	case "1":
		spanPath = filepath.Join(*workdir, "spans.json")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "ncbench:", err)
		return 1
	}

	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, quick: *quick,
		workdir: *workdir, epoch: time.Now(), log: stderr}
	fmt.Fprintf(stdout, "ncbench seed=%d seconds=%d quick=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		*seed, *seconds, *quick, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	code := 0
	spans := spanFile{Seed: *seed}
	for _, w := range selected {
		r, err := b.run(w, spanPath != "")
		if err != nil {
			fmt.Fprintf(stderr, "ncbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		r.print(stdout)
		if !r.correct() {
			code = 1
		}
		if r.traced != nil {
			spans.Workloads = append(spans.Workloads,
				workloadSpans{Workload: w.name, TracedOps: r.traced.layers.ops, Traces: append(r.setups, r.traced.layers.kept...)})
		}
	}
	if spanPath != "" {
		if err := writeSpanFile(spanPath, spans); err != nil {
			fmt.Fprintln(stderr, "ncbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "ncbench: spans written to %s\n", spanPath)
	}
	return code
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is one workload's run: its set-ups and measured passes.
type result struct {
	w      *workload
	served bool
	digest string
	n, m   int
	setups []*trace
	plain  *pass
	traced *pass // nil unless traced
}

// run sets w up setupReps times, then measures a plain pass on the last
// set-up and, when traced, a traced pass after it.
func (b *bench) run(w *workload, traced bool) (*result, error) {
	r := &result{w: w}
	var f *fixture
	defer func() {
		if f != nil {
			if err := f.close(); err != nil {
				fmt.Fprintf(b.log, "ncbench: %s: close: %v\n", w.name, err)
			}
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("close set-up: %w", err)
			}
		}
		var tr *trace
		var err error
		if f, tr, err = b.setUp(w, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, tr)
	}
	digest, err := f.graphDigest()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	r.digest, r.n, r.m, r.served = digest, f.n, f.m, f.served
	fmt.Fprintf(b.log, "ncbench: %s: set up %d times, measuring\n", w.name, setupReps)
	var next int
	r.plain, next = b.measure(w, f, 0, false)
	if traced {
		fmt.Fprintf(b.log, "ncbench: %s: traced pass\n", w.name)
		r.traced, _ = b.measure(w, f, next, true)
	}
	return r, nil
}

func (r *result) attempted() int {
	n := len(r.plain.lat)
	if r.traced != nil {
		n += len(r.traced.lat)
	}
	return n
}

func (r *result) failed() int {
	n := r.plain.failed
	if r.traced != nil {
		n += r.traced.failed
	}
	return n
}

func (r *result) reconciled() bool {
	return r.traced == nil || math.Abs(r.traced.layers.reconcileErr()) <= reconcileTolerance
}

func (r *result) correct() bool { return r.failed() == 0 && r.reconciled() }

// endToEnd are the metrics a user of the system sees, from the plain pass.
func (r *result) endToEnd() []metric {
	p := r.plain
	out := []metric{
		{"setup_s", median(r.setupMS("setup")) / 1e3, "s", len(r.setups)},
		{"throughput_ops", float64(p.good) / p.wall.Seconds(), "ops/s", p.good},
		{"latency_p50_ms", median(p.lat), "ms", len(p.lat)},
		{"heap_live_mb", p.heap.meanMB(), "MB", p.heap.n},
	}
	if p.found > 0 {
		out = append(out, metric{"recovered_pct", p.recSum / float64(p.found), "%", p.found})
	}
	return out
}

// extras are end-to-end numbers outside the gated set: a tail percentile
// only where at least 15 samples lie beyond it, the heap peak, the shares
// that read 0 on a healthy run, and how often a near-clique answer found
// a candidate.
func (r *result) extras() []metric {
	p := r.plain
	n := len(p.lat)
	out := []metric{
		{"heap_peak_mb", p.heap.peakMB(), "MB", p.heap.n},
		{"fail_share", float64(p.failed) / float64(n), "fraction", n},
	}
	if p.near > 0 {
		out = append(out, metric{"found_share", float64(p.found) / float64(p.near), "fraction", p.near})
	}
	if beyond(n, 95) >= 15 {
		out = append(out, metric{"latency_p95_ms", percentile(append([]float64(nil), p.lat...), 95), "ms", n})
	}
	if r.served {
		out = append(out, metric{"server.cache_hit_share", float64(p.hits) / float64(n), "fraction", n})
	}
	if len(p.late) > 0 {
		out = append(out, metric{"loadgen.late_ms_p99", percentile(append([]float64(nil), p.late...), 99), "ms", len(p.late)})
	}
	return out
}

// perLayer are the metrics of single layers: set-up steps, the traced
// pass, and counts and runtime totals from the plain pass.
func (r *result) perLayer() []metric {
	reps := len(r.setups)
	open := r.setupMS("graphio.open_snapshot")
	if r.served {
		open = r.setupMS("server.load_graph")
	}
	t := r.traced
	out := []metric{
		{"gen.generate_s", median(r.setupMS("gen.generate")) / 1e3, "s", reps},
		{"graphio.write_snapshot_ms", median(r.setupMS("graphio.write_snapshot")), "ms", reps},
		{"graphio.open_ms", median(open), "ms", reps},
		{"setup.warm_ms", median(r.setupMS("setup.warm")), "ms", reps},
		{"trace.latency_p50_ms", median(t.lat), "ms", len(t.lat)},
		{"trace.throughput_ops", float64(t.good) / t.wall.Seconds(), "ops/s", t.good},
	}
	out = append(out, t.layers.tierMetrics()...)
	p := r.plain
	ops := float64(len(p.lat))
	if p.near > 0 {
		out = append(out,
			metric{"core.sample_nodes_per_op", float64(p.sample) / float64(p.near), "count", p.near},
			metric{"core.max_component", float64(p.maxComp) / float64(p.near), "count", p.near})
	}
	out = append(out,
		metric{"runtime.alloc_kb_per_op", float64(p.rt.allocBytes) / 1024 / ops, "KB", len(p.lat)},
		metric{"runtime.allocs_per_op", float64(p.rt.mallocs) / ops, "count", len(p.lat)},
		metric{"runtime.gc_cycles_per_op", float64(p.rt.gcs) / ops, "count", len(p.lat)},
		metric{"runtime.gc_pause_ms_total", ms(p.rt.pause), "ms", int(p.rt.gcs)})
	if p.rt.busy >= 0 {
		out = append(out, metric{"runtime.cpu_busy_share", p.rt.busy, "fraction", 1})
	}
	return out
}

// setupMS lists the named setup span's duration in each set-up, in ms.
func (r *result) setupMS(name string) []float64 {
	var out []float64
	for _, t := range r.setups {
		for _, s := range t.Spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return out
}

func (r *result) print(w io.Writer) {
	p := r.plain
	fmt.Fprintf(w, "\n== %s: %s\n", r.w.name, r.w.why)
	fmt.Fprintf(w, "  graph n=%d m=%d digest=%s; %d ops attempted, %d failed, %.2f s measured\n",
		r.n, r.m, r.digest, len(p.lat), p.failed, p.wall.Seconds())
	fmt.Fprintln(w, "  end-to-end (plain pass)")
	for _, m := range append(r.endToEnd(), r.extras()...) {
		fmt.Fprintf(w, "    %s\n", m)
	}
	if late, ok := find(r.extras(), "loadgen.late_ms_p99"); ok && late.value > 5 {
		fmt.Fprintf(w, "    FLAG: the load generator ran %.1f ms late at p99 (over 5 ms); latencies above include it\n", late.value)
	}
	for _, e := range p.errs {
		fmt.Fprintf(w, "    failure: %s\n", e)
	}
	metrics := r.endToEnd()
	if r.traced != nil {
		metrics = r.perLayer()
		fmt.Fprintln(w, "  per layer")
		for _, m := range metrics {
			fmt.Fprintf(w, "    %s\n", m)
		}
		for _, name := range []string{"latency_p50_ms", "throughput_ops"} {
			plain, _ := find(r.endToEnd(), name)
			traced, _ := find(metrics, "trace."+name)
			fmt.Fprintf(w, "    tracing overhead on %s: plain %.6g, traced %.6g (%+.1f%%)\n",
				name, plain.value, traced.value, 100*(traced.value/plain.value-1))
		}
		for _, e := range r.traced.errs {
			fmt.Fprintf(w, "    traced failure: %s\n", e)
		}
		r.traced.layers.print(w)
	}
	fmt.Fprintln(w, resultLine(r.correct(), r.attempted(), r.failed(), metrics))
}

// resultLine renders the one-line JSON result. Values keep every digit
// as measured; a non-finite value cannot be encoded and is left out.
func resultLine(correct bool, attempted, failed int, ms []metric) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			line.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	blob, _ := json.Marshal(line) // finite floats, strings and ints always encode
	return string(blob)
}
