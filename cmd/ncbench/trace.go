package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by ncbench around the
// call, or taken from the phase events the program reports (flight
// events, and the trace section of a "flight" response). Times are
// nanoseconds since the run's epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the trace's spans; -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trace is the span tree of one operation or one setup; every span of
// it shares the trace id. A nil *trace records nothing, so untraced
// passes run the same code.
type trace struct {
	ID    string `json:"trace_id"`
	Spans []span `json:"spans"`

	epoch time.Time
}

func newTrace(epoch time.Time, id string) *trace { return &trace{ID: id, epoch: epoch} }

// add records a span and returns its index (-1 on a nil trace).
func (t *trace) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, span{Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.Spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover. Children are clipped to the parent and overlapping
// children are counted once, so a child that strays outside its parent or
// overlaps a sibling makes the self times sum to more than the root:
// reconciliation exists to catch exactly that.
func (t *trace) selfTimes() []int64 {
	kids := make([][]int, len(t.Spans))
	for i, s := range t.Spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(t.Spans))
	for i, s := range t.Spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			lo, hi := max(t.Spans[k].Start, s.Start), min(t.Spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, x := range iv {
			if x[0] > reach {
				reach = x[0]
			}
			if x[1] > reach {
				covered += x[1] - reach
				reach = x[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// tiers are the layer groups whose self times add up to an op's
// latency. Every workload reports all four; a tier a workload never
// enters reads 0 (the serving tier on the library workloads, the engine
// tiers on serve-cached, whose ops are all cache hits).
var tiers = []struct{ name, what string }{
	{"client", "ncbench, load generator wait and HTTP transport"},
	{"server", "server.Handler outside the solver: decode, admission, cache, encode"},
	{"nearclique", "Solve/Search/Count outside flight phases (search probes, refine)"},
	{"phases", "flight phases: explore, decide, shadow build and sample"},
}

func tierOf(name string) string {
	switch layer, _, _ := strings.Cut(name, "."); layer {
	case "server", "nearclique":
		return layer
	case "engine":
		return "phases"
	}
	return "client"
}

// maxKeptTraces bounds how many op traces per pass go to the span file;
// every traced op still feeds the aggregates.
const maxKeptTraces = 500

// layers aggregates the op traces of one traced pass.
type layers struct {
	ops    int
	rootNS int64 // Σ op latency: the traced end-to-end wall time
	selfNS int64 // Σ self time over every span
	tierNS map[string]int64
	dur    map[string][]float64 // span name -> durations, ms
	self   map[string][]float64 // span name -> self times, ms
	kept   []*trace
}

func newLayers() *layers {
	return &layers{tierNS: map[string]int64{}, dur: map[string][]float64{}, self: map[string][]float64{}}
}

func (l *layers) add(t *trace) {
	if t == nil || len(t.Spans) == 0 {
		return
	}
	l.ops++
	l.rootNS += t.Spans[0].End - t.Spans[0].Start
	for i, st := range t.selfTimes() {
		s := t.Spans[i]
		l.selfNS += st
		l.tierNS[tierOf(s.Name)] += st
		l.dur[s.Name] = append(l.dur[s.Name], float64(s.End-s.Start)/1e6)
		l.self[s.Name] = append(l.self[s.Name], float64(st)/1e6)
	}
	if len(l.kept) < maxKeptTraces {
		l.kept = append(l.kept, t)
	}
}

func (l *layers) merge(o *layers) {
	l.ops += o.ops
	l.rootNS += o.rootNS
	l.selfNS += o.selfNS
	for k, v := range o.tierNS {
		l.tierNS[k] += v
	}
	for k, v := range o.dur {
		l.dur[k] = append(l.dur[k], v...)
		l.self[k] = append(l.self[k], o.self[k]...)
	}
	for _, t := range o.kept {
		if len(l.kept) < maxKeptTraces {
			l.kept = append(l.kept, t)
		}
	}
}

// reconcileErr is the relative gap between the summed self times and the
// summed op latencies; within ±reconcileTolerance the layers account for
// the end-to-end time.
func (l *layers) reconcileErr() float64 {
	if l.rootNS == 0 {
		return math.Inf(1)
	}
	return float64(l.selfNS-l.rootNS) / float64(l.rootNS)
}

const reconcileTolerance = 0.05

// tierMetrics are the per-op mean self times of each tier, in ms. Means,
// not medians, so that they add up to the mean traced latency.
func (l *layers) tierMetrics() []metric {
	var out []metric
	for _, t := range tiers {
		out = append(out, metric{"layer." + t.name + "_ms_per_op",
			float64(l.tierNS[t.name]) / 1e6 / float64(l.ops), "ms", l.ops})
	}
	return out
}

// print writes the layer table: each tier's self time, the per-span
// breakdown and the reconciliation verdict.
func (l *layers) print(w io.Writer) {
	fmt.Fprintf(w, "  layer self time per op (traced pass, %d ops)\n", l.ops)
	for _, t := range tiers {
		ns := l.tierNS[t.name]
		fmt.Fprintf(w, "    layer.%-28s %10.4f ms  %5.1f%%  %s\n", t.name+"_ms_per_op",
			float64(ns)/1e6/float64(l.ops), 100*float64(ns)/float64(l.rootNS), t.what)
	}
	names := make([]string, 0, len(l.dur))
	for n := range l.dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "    %-34s %8s %11s %11s %11s %13s\n", "span", "count", "p50_ms", "p95_ms", "self_p50_ms", "self_total_ms")
	for _, n := range names {
		d, s := append([]float64(nil), l.dur[n]...), l.self[n]
		total := 0.0
		for _, x := range s {
			total += x
		}
		fmt.Fprintf(w, "    %-34s %8d %11.4f %11.4f %11.4f %13.1f\n", n, len(d),
			percentile(d, 50), percentile(d, 95), median(s), total)
	}
	verdict := "ok"
	if math.Abs(l.reconcileErr()) > reconcileTolerance {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "    reconcile: layers %.1f ms vs end-to-end %.1f ms (%+.3f%%, tolerance ±%.0f%%) %s\n",
		float64(l.selfNS)/1e6, float64(l.rootNS)/1e6, 100*l.reconcileErr(), 100*reconcileTolerance, verdict)
}

// spanFile is the JSON document -trace writes: per workload, the setup
// traces and the first op traces of the traced pass.
type spanFile struct {
	Seed      int64           `json:"seed"`
	Workloads []workloadSpans `json:"workloads"`
}

type workloadSpans struct {
	Workload  string   `json:"workload"`
	TracedOps int      `json:"traced_ops"`
	Traces    []*trace `json:"traces"`
}

func writeSpanFile(path string, f spanFile) error {
	blob, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
