package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"nearclique"
)

const (
	// setupReps is how many times each run sets its workload up; setup_s
	// is the median, and the last set-up serves the measured passes.
	setupReps = 3
	// warmClients run the warm-up ops: one per core.
	warmClients = 2
)

// bench holds one invocation's settings.
type bench struct {
	seed    int64
	seconds time.Duration
	quick   bool
	workdir string
	epoch   time.Time // zero of every span time
	log     io.Writer
}

func (b *bench) shape(s shape) shape {
	if b.quick {
		return shapeQuick
	}
	return s
}

// fixture is a set-up workload, ready to execute ops.
type fixture struct {
	n, m   int
	served bool // ops go over HTTP to an in-process server
	// exec runs one op, due at due; tr is nil on untraced passes.
	exec func(spec opSpec, due time.Time, tr *trace) outcome
	// graphDigest checks, after the timed set-up, that the graph under
	// test is the generated one, and returns its Digest.
	graphDigest func() (string, error)
	close       func() error
}

// outcome is what one op reports to the harness.
type outcome struct {
	latency time.Duration
	err     error // refused, failed, not found, or a failed check
	hit     bool  // served from the result cache
	q       quality
	// verify, when set, checks the op's output after the pass, so that
	// checking costs no measured time; it may complete the op's trace
	// from phase events carried by the output.
	verify func() (quality, error)
	tr     *trace
}

// quality is what a near-clique output says about the answer. A run that
// commits no candidate, or a search that finds no ε, is a valid answer of
// a randomized algorithm that succeeds with constant probability, not a
// failed op; recovered_pct averages over the answers that found one.
type quality struct {
	near      bool    // a solve, refine or search result
	found     bool    // it holds a candidate
	recovered float64 // percent of the planted set in the best candidate
	sample    int     // sampled nodes, summed over boosting versions
	maxComp   int     // largest sampled component
}

// pass is one measured run of a workload's op list.
type pass struct {
	wall     time.Duration
	lat      []float64 // ms, every attempted op
	failed   int
	good     int // succeeded within the workload's latency limit
	hits     int
	late     []float64 // open loop: ms each arrival was dispatched after it was due
	near     int       // near-clique results
	found    int       // near-clique results holding a candidate
	recSum   float64
	sample   int
	maxComp  int
	errs     []string
	deferred []outcome
	layers   *layers // traced passes only
	heap     heapStats
	rt       rtDelta
}

func (p *pass) record(o outcome, limit time.Duration) {
	p.lat = append(p.lat, ms(o.latency))
	switch {
	case o.err != nil:
		p.fail(o.err)
	case o.verify != nil:
		p.deferred = append(p.deferred, o)
	default:
		p.succeed(o, o.q, limit)
	}
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *pass) succeed(o outcome, q quality, limit time.Duration) {
	if o.hit {
		p.hits++
	}
	if o.latency <= limit {
		p.good++
	}
	if q.near {
		p.near++
		p.sample += q.sample
		p.maxComp += q.maxComp
	}
	if q.found {
		p.found++
		p.recSum += q.recovered
	}
	if p.layers != nil {
		p.layers.add(o.tr)
	}
}

func (p *pass) merge(o *pass) {
	p.lat = append(p.lat, o.lat...)
	p.failed += o.failed
	p.good += o.good
	p.hits += o.hits
	p.near += o.near
	p.found += o.found
	p.recSum += o.recSum
	p.sample += o.sample
	p.maxComp += o.maxComp
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
	p.deferred = append(p.deferred, o.deferred...)
	if p.layers != nil {
		p.layers.merge(o.layers)
	}
}

// finish runs the deferred output checks.
func (p *pass) finish(limit time.Duration) {
	for _, o := range p.deferred {
		if q, err := o.verify(); err != nil {
			p.fail(err)
		} else {
			p.succeed(o, q, limit)
		}
	}
	p.deferred = nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setUp generates the graph, writes and opens it, and runs the warm-up
// ops, timing each step as a span of one trace whose root is the set-up.
// Output checks on the warm-up ops run after the timed part. The fixture
// is returned for closing even when a check fails.
func (b *bench) setUp(w *workload, rep int) (*fixture, *trace, error) {
	tr := newTrace(b.epoch, fmt.Sprintf("%s/setup-%d", w.name, rep))
	start := time.Now()
	root := tr.add("setup", -1, start, start)
	f, err := w.setup(b, w, tr, root)
	if err != nil {
		return nil, nil, err
	}
	warmStart := time.Now()
	warm := runAll(f, w.warm(b.seed), warmClients)
	end := time.Now()
	tr.add("setup.warm", root, warmStart, end)
	tr.Spans[root].End = end.Sub(b.epoch).Nanoseconds()

	for _, o := range warm {
		err := o.err
		if err == nil && o.verify != nil {
			_, err = o.verify()
		}
		if err != nil {
			return f, nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return f, tr, nil
}

// runAll executes ops on clients goroutines as fast as they complete.
func runAll(f *fixture, ops []opSpec, clients int) []outcome {
	outs := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				outs[i] = f.exec(ops[i], time.Now(), nil)
			}
		}()
	}
	wg.Wait()
	return outs
}

// measure runs one pass of w against f for b.seconds, starting at op
// index from, and returns it with the next unused op index.
func (b *bench) measure(w *workload, f *fixture, from int, traced bool) (*pass, int) {
	runtime.GC()
	parts := make([]*pass, w.clients)
	for c := range parts {
		parts[c] = &pass{}
		if traced {
			parts[c].layers = newLayers()
		}
	}
	traceOf := func(i int) *trace {
		if !traced {
			return nil
		}
		return newTrace(b.epoch, fmt.Sprintf("%s/op-%d", w.name, i))
	}

	rt0 := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	var late []float64
	var wg sync.WaitGroup
	next := from
	if w.rate == 0 {
		var counter atomic.Int64
		counter.Store(int64(from))
		deadline := start.Add(b.seconds)
		for c := range parts {
			wg.Add(1)
			go func(p *pass) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(counter.Add(1) - 1)
					p.record(f.exec(w.op(b.seed, i), time.Now(), traceOf(i)), w.limit)
				}
			}(parts[c])
		}
		wg.Wait()
		next = int(counter.Load())
	} else {
		type job struct {
			i    int
			spec opSpec
			due  time.Time
		}
		sched := opList(w, b.seed, from, int(b.seconds.Seconds()*w.rate))
		jobs := make(chan job, len(sched)) // sized to the number of sends
		for c := range parts {
			wg.Add(1)
			go func(p *pass) {
				defer wg.Done()
				for j := range jobs {
					p.record(f.exec(j.spec, j.due, traceOf(j.i)), w.limit)
				}
			}(parts[c])
		}
		for k, spec := range sched {
			due := start.Add(time.Duration(spec.DueNS))
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			jobs <- job{from + k, spec, due}
		}
		close(jobs)
		wg.Wait()
		next = from + len(sched)
	}
	p := parts[0]
	p.wall = time.Since(start)
	p.heap = heap.stop()
	p.rt = readRuntime().sub(rt0, p.wall)
	p.late = late
	for _, o := range parts[1:] {
		p.merge(o)
	}
	p.finish(w.limit)
	return p, next
}

// writeSnapshot generates the shape's planted graph and writes it as a
// snapshot, timing both steps under root.
func (b *bench) writeSnapshot(w *workload, sh shape, tr *trace, root int) (nearclique.GenResult, string, error) {
	t0 := time.Now()
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: sh.n, Size: sh.size, EpsIn: epsilon * epsilon * epsilon,
		P: sh.avgDeg / float64(sh.n-1), Seed: derive(b.seed, "graph", 0),
	})
	if err != nil {
		return inst, "", fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	tr.add("gen.generate", root, t0, t1)
	path := filepath.Join(b.workdir, w.name+".ncsr")
	file, err := os.Create(path)
	if err != nil {
		return inst, "", fmt.Errorf("write snapshot: %w", err)
	}
	err = nearclique.WriteSnapshot(file, inst.Graph)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return inst, "", fmt.Errorf("write snapshot: %w", err)
	}
	tr.add("graphio.write_snapshot", root, t1, time.Now())
	return inst, path, nil
}

// plantedSet marks the planted members of an n-node graph.
func plantedSet(n int, members []int) []bool {
	in := make([]bool, n)
	for _, v := range members {
		in[v] = true
	}
	return in
}

// checkNear fails unless every set is an ε-near clique of g.
func checkNear(g *nearclique.Graph, eps float64, sets [][]int) error {
	for i, s := range sets {
		if !nearclique.IsNearClique(g, s, eps) {
			return fmt.Errorf("check: candidate %d (%d nodes) is not %v-near", i, len(s), eps)
		}
	}
	return nil
}

// recovered is the percent of the planted set inside members.
func recovered(planted []bool, size int, members []int) float64 {
	hit := 0
	for _, v := range members {
		if v >= 0 && v < len(planted) && planted[v] {
			hit++
		}
	}
	return 100 * float64(hit) / float64(size)
}

// heapSampler samples the live heap every 10 ms until stopped.
type heapSampler struct {
	done, quit chan struct{}
	heap       heapStats
}

// heapStats summarizes the live-heap samples of a pass. The mean is the
// gated memory metric: the peak is set by whichever op held the most at
// the moment a GC marked, and across seeds it spreads 15–18% where the
// mean spreads 1–3%.
type heapStats struct {
	peak uint64
	sum  float64
	n    int
}

func (h heapStats) meanMB() float64 { return h.sum / float64(h.n) / (1 << 20) }
func (h heapStats) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// heapMetric is the heap the last GC marked live: unlike the bytes of all
// heap objects it leaves out garbage awaiting collection, whose amount
// depends on when the GC happened to run.
const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			h.heap.peak = max(h.heap.peak, v)
			h.heap.sum += float64(v)
			h.heap.n++
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples' summary.
func (h *heapSampler) stop() heapStats {
	close(h.quit)
	<-h.done
	return h.heap
}

// rtSnap and rtDelta are process-wide runtime counters around a pass.
type rtSnap struct {
	alloc, mallocs, pauseNS uint64
	gcs                     uint32
	cpu                     time.Duration
	cpuOK                   bool
}

type rtDelta struct {
	allocBytes, mallocs uint64
	gcs                 uint32
	pause               time.Duration
	busy                float64 // process CPU time / (wall × GOMAXPROCS); < 0 when unavailable
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cpu, ok := cpuTime()
	return rtSnap{alloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNS: m.PauseTotalNs, gcs: m.NumGC, cpu: cpu, cpuOK: ok}
}

func (s rtSnap) sub(o rtSnap, wall time.Duration) rtDelta {
	d := rtDelta{allocBytes: s.alloc - o.alloc, mallocs: s.mallocs - o.mallocs, gcs: s.gcs - o.gcs,
		pause: time.Duration(s.pauseNS - o.pauseNS), busy: -1}
	if s.cpuOK && o.cpuOK {
		d.busy = float64(s.cpu-o.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	}
	return d
}
