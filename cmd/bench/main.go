// Command bench measures the CONGEST engines and emits a machine-readable
// BENCH_engine.json: per workload and engine, wall time, rounds, frames,
// payload bytes, and allocation counts, with derived rounds/sec,
// bytes/sec, and allocs/round. CI runs it on every PR; the committed
// BENCH_engine.json is the first recorded baseline. Records use the
// shared schema of internal/report (the same cost block cmd/nearclique
// -json emits), so downstream tooling parses both identically.
//
// With -load it instead measures the graph-load paths — text edge-list
// parse vs `.ncsr` snapshot mmap at equal graph shape — and emits
// BENCH_graph.json: wall time, runtime.ReadMemStats heap growth,
// allocations, and file sizes per workload and format. An explicit
// -input file (edge list, .txt.gz, or .ncsr snapshot — auto-detected) is
// measured instead of the synthetic grid when given.
//
// With -refine it measures the refinement post-pass instead and emits
// BENCH_refine.json: on planted-clique workloads over a grid of seeds,
// base vs refined candidate quality (size, density, planted-set
// recovery) plus the improved-seed fraction — the second quality axis
// the refinement subsystem is tracked by.
//
// With -flight it measures the flight recorder's overhead — the same
// workload solved with the per-round recorder detached and attached,
// best-of-k each — and emits BENCH_flight.json. The recorder's contract
// is observational: the record pins both the wall-time overhead (the <2%
// budget) and that the two runs' transcripts digest identically.
//
// With -costfit it runs a fixed engine×size grid of solves, fits the
// admission cost model (internal/costmodel) on the observed costs, and
// emits the model itself as COSTMODEL.json — the artifact nearcliqued
// -costmodel seeds from. -costcheck is the CI twin: it re-solves the
// fixed seeds, compares observed wall time against the committed model's
// prediction, and fails on >3x drift — the committed pricing artifact
// cannot silently rot as the engines change underneath it.
//
// Usage:
//
//	bench                 # full engine grid (tens of seconds)
//	bench -quick          # small grid for CI
//	bench -o BENCH_engine.json
//	bench -search-batch   # engine grid plus batched ε-Search throughput rows
//	bench -load -o BENCH_graph.json       # load-path comparison, n=1e5/1e6
//	bench -load -input web.ncsr           # load a specific file
//	bench -refine -o BENCH_refine.json    # base vs refined quality, n=1e4/1e5
//	bench -flight -o BENCH_flight.json    # recorder on-vs-off overhead, n=1e5
//	bench -costfit -o COSTMODEL.json      # fit the admission cost model
//	bench -costcheck -quick               # CI drift gate vs COSTMODEL.json
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nearclique"
	"nearclique/internal/buildinfo"
	"nearclique/internal/congest"
	"nearclique/internal/core"
	"nearclique/internal/costmodel"
	"nearclique/internal/expt"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
	"nearclique/internal/graphio"
	"nearclique/internal/report"
)

// Report is the emitted file; each entry is a shared-schema Measurement.
type Report struct {
	Generated  string               `json:"generated"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Quick      bool                 `json:"quick"`
	Results    []report.Measurement `json:"results"`
}

// LoadReport is the -load emitted file (BENCH_graph.json).
type LoadReport struct {
	Generated  string                   `json:"generated"`
	GoVersion  string                   `json:"go_version"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Quick      bool                     `json:"quick"`
	Results    []report.LoadMeasurement `json:"results"`
}

// FlightReport is the -flight emitted file (BENCH_flight.json).
type FlightReport struct {
	Generated  string                     `json:"generated"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Quick      bool                       `json:"quick"`
	Results    []report.FlightMeasurement `json:"results"`
}

// RefineReport is the -refine emitted file (BENCH_refine.json).
type RefineReport struct {
	Generated  string                     `json:"generated"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Quick      bool                       `json:"quick"`
	Results    []report.RefineMeasurement `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "small grid for CI")
		out     = fs.String("o", "", "write the JSON report to this file (default stdout)")
		seed    = fs.Int64("seed", 1, "base seed")
		load    = fs.Bool("load", false, "measure graph-load paths (text parse vs snapshot mmap) instead of engines")
		refineF = fs.Bool("refine", false, "measure base vs refined candidate quality on planted-clique workloads instead of engines")
		flightF = fs.Bool("flight", false, "measure flight-recorder overhead (recorder on vs off) instead of engines")
		searchB = fs.Bool("search-batch", false, "additionally measure batched ε-Search probe throughput per engine")
		countB  = fs.Bool("count", false, "additionally measure Turán-shadow counting throughput (engine=shadow rows)")
		costfit = fs.Bool("costfit", false, "fit the admission cost model on a fixed solve grid and emit it as JSON")
		costchk = fs.Bool("costcheck", false, "re-solve the fixed grid and fail on >3x drift vs the committed cost model")
		model   = fs.String("model", "COSTMODEL.json", "with -costcheck: the committed cost-model artifact to check against")
		input   = fs.String("input", "", "with -load: measure this graph file (auto-detected format) instead of the synthetic grid")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("bench"))
		return 0
	}
	if *costchk {
		if err := costCheck(stderr, *quick, *seed, *model); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "costcheck: ok")
		return 0
	}
	var payload interface{}
	if *costfit {
		m, err := costFitGrid(stderr, *quick, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		payload = m
	} else if *flightF {
		results, err := flightBenchmarks(stderr, *quick, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		payload = FlightReport{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
			Results:    results,
		}
	} else if *refineF {
		results, err := refineBenchmarks(stderr, *quick, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		payload = RefineReport{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
			Results:    results,
		}
	} else if *load {
		results, err := loadBenchmarks(stderr, *quick, *seed, *input)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		payload = LoadReport{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
			Results:    results,
		}
	} else {
		rep := Report{
			Generated:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick:      *quick,
		}
		rep.Results = append(rep.Results, gossipBenchmarks(stderr, *quick, *seed)...)
		rep.Results = append(rep.Results, findBenchmarks(stderr, *quick, *seed)...)
		if *searchB {
			results, err := searchBatchBenchmarks(stderr, *quick, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.Results = append(rep.Results, results...)
		}
		if *countB {
			results, err := countBenchmarks(stderr, *quick, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			rep.Results = append(rep.Results, results...)
		}
		payload = rep
	}

	enc, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "" {
		stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// --- gossip: raw frame throughput ---------------------------------------

type gossipMsg struct{ hop int32 }

func (gossipMsg) BitLen() int { return 24 }

type gossipProc struct{ maxHop int32 }

func (p *gossipProc) PhaseStart(ctx *congest.Context) {
	ctx.Broadcast(gossipMsg{hop: 0})
}

func (p *gossipProc) Recv(ctx *congest.Context, from congest.NodeID, msg congest.Message) {
	m := msg.(gossipMsg)
	if m.hop+1 < p.maxHop && int32(from) == ctx.Neighbors()[0] {
		ctx.Broadcast(gossipMsg{hop: m.hop + 1})
	}
}

func gossipBenchmarks(stderr io.Writer, quick bool, seed int64) []report.Measurement {
	n := 5000
	hops := int32(8)
	if quick {
		n = 1000
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gossip/er", gen.SparseErdosRenyi(n, 20/float64(n-1), seed)},
		{"gossip/planted", gen.SparsePlantedNearClique(n, n/5, 0.02, 10, seed).Graph},
		{"gossip/powerlaw", gen.SparsePreferentialAttachment(n, 8, seed)},
	}
	var out []report.Measurement
	for _, gr := range graphs {
		gr.g.CSR() // build once, outside the timed region
		fmt.Fprintf(stderr, "bench: %s sharded...\n", gr.name)
		out = append(out, measure(gr.name, gr.g, 3, func() congest.Metrics {
			net := congest.NewNetwork(gr.g, congest.Options{Seed: seed},
				func(ctx *congest.Context) congest.Proc { return &gossipProc{maxHop: hops} })
			if err := net.RunPhase("gossip"); err != nil {
				panic(err)
			}
			return net.Metrics()
		}))
	}
	return out
}

// measure runs fn reps times and keeps the fastest wall time (with its
// metrics), the standard best-of-k discipline for a noisy machine.
func measure(name string, g *graph.Graph, reps int, fn func() congest.Metrics) report.Measurement {
	best := report.Measurement{Workload: name, Engine: "sharded", N: g.N(), M: g.M()}
	for i := 0; i < reps; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		m := fn()
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if i == 0 || wall < best.WallNS {
			best.WallNS = wall
			best.Rounds = m.Rounds
			best.Frames = m.Frames
			best.PayloadBytes = m.Bits / 8
			best.Allocs = ms1.Mallocs - ms0.Mallocs
			best.HeapBytes = heapGrowth(&ms0, &ms1)
		}
	}
	if best.WallNS > 0 {
		secs := float64(best.WallNS) / 1e9
		best.RoundsPerSec = round2(float64(best.Rounds) / secs)
		best.MBytesPerSec = round2(float64(best.PayloadBytes) / secs / 1e6)
	}
	if best.Rounds > 0 {
		best.AllocsPerRnd = round2(float64(best.Allocs) / float64(best.Rounds))
	}
	// Content digest outside the timed region: results stay attributable
	// to an exact input without perturbing the measurement.
	best.GraphDigest = g.Digest()
	return best
}

// --- find: full protocol runs at scale ----------------------------------

func findBenchmarks(stderr io.Writer, quick bool, seed int64) []report.Measurement {
	var out []report.Measurement
	for _, pt := range expt.ScalePoints(quick) {
		// The grid, instance, and Find configuration are shared with
		// experiment E13 (internal/expt/scale.go) so BENCH_engine.json and
		// the E13 table always measure the same workload.
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		name := fmt.Sprintf("find/planted-n%d", pt.N)
		fmt.Fprintf(stderr, "bench: %s sharded...\n", name)
		reps := 3
		if pt.N >= 1_000_000 {
			reps = 1
		}
		var recovered float64
		res := measure(name, inst.Graph, reps, func() congest.Metrics {
			r, err := core.Find(inst.Graph, expt.ScaleOptions(pt, seed+1))
			if err != nil {
				panic(err)
			}
			if best := r.Best(); best != nil {
				recovered = 100 * float64(expt.RecoveredCount(inst.D, best.Members)) /
					float64(len(inst.D))
			}
			return r.Metrics
		})
		res.RecoveredPct = round2(recovered)
		out = append(out, res)
	}
	return out
}

// heapGrowth returns the live-heap growth across a measured region (the
// caller GC'd immediately before reading ms0), clamped at zero.
func heapGrowth(ms0, ms1 *runtime.MemStats) uint64 {
	if ms1.HeapAlloc <= ms0.HeapAlloc {
		return 0
	}
	return ms1.HeapAlloc - ms0.HeapAlloc
}

// --- load: text parse vs snapshot mmap ----------------------------------

// loadBenchmarks measures the two graph-load paths at equal graph shape.
// With an -input file it measures that file as-is (auto-detected format);
// otherwise it writes the E13 planted instances (the same grid the engine
// benchmarks run, ending at n=1e6; quick stays CI-sized) to a temp dir in
// both formats and loads each back.
func loadBenchmarks(stderr io.Writer, quick bool, seed int64, input string) ([]report.LoadMeasurement, error) {
	if input != "" {
		m, err := measureLoad("input/"+filepath.Base(input), formatOf(input), input)
		if err != nil {
			return nil, err
		}
		return []report.LoadMeasurement{m}, nil
	}

	points := expt.ScalePoints(quick)
	if !quick && len(points) > 2 {
		points = points[len(points)-2:] // n=1e5 and n=1e6: the load-path story
	}
	dir, err := os.MkdirTemp("", "bench-load-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var out []report.LoadMeasurement
	for _, pt := range points {
		n := pt.N
		name := fmt.Sprintf("load/planted-n%d", n)
		fmt.Fprintf(stderr, "bench: %s generating...\n", name)
		g := expt.ScaleInstance(pt, seed).Graph

		textPath := filepath.Join(dir, fmt.Sprintf("g%d.edges", n))
		snapPath := filepath.Join(dir, fmt.Sprintf("g%d.ncsr", n))
		if err := writeFileWith(textPath, func(w io.Writer) error { return graphio.Write(w, g) }); err != nil {
			return nil, err
		}
		if err := graphio.WriteSnapshotFile(snapPath, g); err != nil {
			return nil, err
		}

		var textNS int64
		for _, f := range []struct{ format, path string }{
			{"text", textPath},
			{"snap", snapPath},
		} {
			fmt.Fprintf(stderr, "bench: %s %s...\n", name, f.format)
			m, err := measureLoad(name, f.format, f.path)
			if err != nil {
				return nil, err
			}
			if f.format == "text" {
				textNS = m.WallNS
			} else if m.WallNS > 0 {
				m.SpeedupVsText = round2(float64(textNS) / float64(m.WallNS))
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// measureLoad loads one graph file a few times (best-of-k) and records
// wall time plus runtime.ReadMemStats heap growth and allocation count.
func measureLoad(name, format, path string) (report.LoadMeasurement, error) {
	st, err := os.Stat(path)
	if err != nil {
		return report.LoadMeasurement{}, err
	}
	best := report.LoadMeasurement{Workload: name, Format: format, FileBytes: st.Size()}
	const reps = 3
	for i := 0; i < reps; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		g, closeGraph, err := graphio.Load(path)
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			return best, err
		}
		runtime.ReadMemStats(&ms1)
		if i == 0 || wall < best.WallNS {
			best.WallNS = wall
			best.N = g.N()
			best.M = g.M()
			best.HeapBytes = heapGrowth(&ms0, &ms1)
			best.Allocs = ms1.Mallocs - ms0.Mallocs
		}
		// Digest before closeGraph unmaps snapshot-backed arenas; the
		// measurement window (ms1/wall) has already closed. Text and
		// snapshot rows of one workload share the digest — the load
		// paths provably produced the same graph.
		best.GraphDigest = g.Digest()
		if err := closeGraph(); err != nil {
			return best, err
		}
	}
	if best.WallNS > 0 {
		best.MBPerSec = round2(float64(best.FileBytes) / (float64(best.WallNS) / 1e9) / 1e6)
	}
	return best, nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- refine: base vs refined candidate quality ---------------------------

// refinePoint is one planted-clique workload of the -refine grid: a
// strict clique of Size nodes planted over an AvgDeg sparse background,
// solved and refined across Seeds independent (graph, coin) seeds.
type refinePoint struct {
	N, Size int
	AvgDeg  float64
	Seeds   int
}

func refinePoints(quick bool) []refinePoint {
	if quick {
		return []refinePoint{{N: 5_000, Size: 300, AvgDeg: 10, Seeds: 3}}
	}
	return []refinePoint{
		{N: 10_000, Size: 400, AvgDeg: 12, Seeds: 10},
		{N: 100_000, Size: 1000, AvgDeg: 12, Seeds: 10},
	}
}

// refineBenchmarks runs each workload twice per seed — once plain, once
// with the near-clique refinement post-pass — and aggregates base vs
// refined quality. The base run pins the comparison: the refined run's
// candidates are bit-identical to it (refinement never touches the
// protocol transcript), so any quality delta is attributable to the
// post-pass alone. RefineWallNS is the post-pass share of wall time
// (refined-run wall minus base-run wall, clamped at zero per seed).
func refineBenchmarks(stderr io.Writer, quick bool, seed int64) ([]report.RefineMeasurement, error) {
	spec, err := nearclique.ParseRefineSpec("near")
	if err != nil {
		return nil, err
	}
	var out []report.RefineMeasurement
	for _, pt := range refinePoints(quick) {
		m := report.RefineMeasurement{
			Workload: fmt.Sprintf("refine/planted-n%d", pt.N),
			Engine:   "seq",
			Refine:   spec.String(),
			N:        pt.N,
			Seeds:    pt.Seeds,
		}
		improved, counted := 0, 0
		var baseSize, refSize, baseDen, refDen, moves, baseRec, refRec float64
		for i := 0; i < pt.Seeds; i++ {
			s := seed + int64(i)
			fmt.Fprintf(stderr, "bench: %s seed=%d...\n", m.Workload, s)
			inst := gen.SparsePlantedNearClique(pt.N, pt.Size, 0, pt.AvgDeg, s)
			if i == 0 {
				m.M = inst.Graph.M()
				m.GraphDigest = inst.Graph.Digest()
			}
			sample := 4 * float64(pt.N) / float64(pt.Size)
			common := []nearclique.Option{
				nearclique.WithEpsilon(expt.ScaleEps),
				nearclique.WithExpectedSample(sample),
				nearclique.WithMinSize(pt.Size / 4),
				nearclique.WithSeed(s + 1),
			}
			baseSolver, err := nearclique.New(common...)
			if err != nil {
				return nil, err
			}
			refSolver, err := nearclique.New(append(common[:len(common):len(common)],
				nearclique.WithRefine(spec))...)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			baseRes, err := baseSolver.Solve(context.Background(), inst.Graph)
			baseWall := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: base solve: %w", m.Workload, s, err)
			}
			start = time.Now()
			refRes, err := refSolver.Solve(context.Background(), inst.Graph)
			refWall := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: refined solve: %w", m.Workload, s, err)
			}
			m.SolveWallNS += baseWall
			if d := refWall - baseWall; d > 0 {
				m.RefineWallNS += d
			}

			best := baseRes.Best()
			if best == nil || len(refRes.Refined) == 0 {
				continue // a miss counts against ImprovedPct via the seed count
			}
			// Refined records are index-aligned with the (bit-identical)
			// candidate list, so Refined[0] is exactly the refinement of
			// the base best candidate — the only apples-to-apples pairing
			// for the improved/density/recovery columns.
			ref := &refRes.Refined[0]
			counted++
			baseSize += float64(len(best.Members))
			baseDen += best.Density
			refSize += float64(len(ref.Members))
			refDen += ref.Density
			moves += float64(ref.Moves)
			baseRec += 100 * float64(expt.RecoveredCount(inst.D, best.Members)) / float64(len(inst.D))
			refRec += 100 * float64(expt.RecoveredCount(inst.D, ref.Members)) / float64(len(inst.D))
			if ref.Density >= best.Density &&
				(len(ref.Members) > len(best.Members) || ref.Density > best.Density) {
				improved++
			}
		}
		// ImprovedPct is over every seed (a no-candidate miss counts
		// against it); the mean columns average only the seeds that
		// committed a candidate, so a miss cannot deflate them.
		m.ImprovedPct = round2(100 * float64(improved) / float64(pt.Seeds))
		if counted > 0 {
			k := float64(counted)
			m.MeanBaseSize = round2(baseSize / k)
			m.MeanRefinedSize = round2(refSize / k)
			m.MeanBaseDensity = round4(baseDen / k)
			m.MeanRefinedDensity = round4(refDen / k)
			m.MeanMoves = round2(moves / k)
			m.BaseRecoveredPct = round2(baseRec / k)
			m.RecoveredPct = round2(refRec / k)
		}
		out = append(out, m)
	}
	return out, nil
}

func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }

// formatOf labels an -input file for the report by its extension.
func formatOf(path string) string {
	switch {
	case strings.HasSuffix(path, ".ncsr"):
		return "snap"
	case strings.HasSuffix(path, ".gz"):
		return "gzip"
	default:
		return "text"
	}
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// --- flight: recorder on-vs-off overhead ---------------------------------

// flightBenchmarks solves one planted workload per engine twice —
// recorder detached, then attached — best-of-k each, and reports the
// wall-time overhead plus proof (transcript digest equality) that the
// recorder observed the run without perturbing it.
func flightBenchmarks(stderr io.Writer, quick bool, seed int64) ([]report.FlightMeasurement, error) {
	pt := expt.ScalePoint{N: 100_000, Size: 1000, AvgDeg: 12}
	if quick {
		pt = expt.ScalePoint{N: 5_000, Size: 300, AvgDeg: 10}
	}
	const reps = 5
	inst := expt.ScaleInstance(pt, seed)
	inst.Graph.CSR()
	name := fmt.Sprintf("flight/planted-n%d", pt.N)
	var out []report.FlightMeasurement
	for _, eng := range []nearclique.Engine{nearclique.EngineSequential, nearclique.EngineSharded} {
		m := report.FlightMeasurement{
			Workload:    name,
			Engine:      eng.String(),
			GraphDigest: inst.Graph.Digest(),
			N:           inst.Graph.N(),
			M:           inst.Graph.M(),
			Capacity:    nearclique.DefaultFlightCapacity,
		}
		var offTr, onTr string
		for _, on := range []bool{false, true} {
			fmt.Fprintf(stderr, "bench: %s %s recorder=%v...\n", name, m.Engine, on)
			for i := 0; i < reps; i++ {
				opts := []nearclique.Option{
					nearclique.WithEngine(eng),
					nearclique.WithEpsilon(expt.ScaleEps),
					nearclique.WithExpectedSample(4 * float64(pt.N) / float64(pt.Size)),
					nearclique.WithMinSize(pt.Size / 4),
					nearclique.WithSeed(seed + 1),
				}
				var rec *nearclique.FlightRecorder
				if on {
					rec = nearclique.NewFlightRecorder(nearclique.DefaultFlightCapacity)
					opts = append(opts, nearclique.WithFlightRecorder(rec))
				}
				solver, err := nearclique.New(opts...)
				if err != nil {
					return nil, err
				}
				runtime.GC()
				start := time.Now()
				res, err := solver.Solve(context.Background(), inst.Graph)
				wall := time.Since(start).Nanoseconds()
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, m.Engine, err)
				}
				tr := solveTranscript(res)
				if on {
					if i == 0 || wall < m.OnWallNS {
						m.OnWallNS = wall
						m.Rounds = int64(res.Metrics.Rounds)
						m.EventsOffered = rec.Offered()
						m.EventsDropped = rec.Dropped()
					}
					onTr = tr
				} else {
					if i == 0 || wall < m.OffWallNS {
						m.OffWallNS = wall
					}
					offTr = tr
				}
			}
		}
		m.DigestsMatch = offTr != "" && offTr == onTr
		if m.OffWallNS > 0 {
			m.OverheadPct = round2(100 * float64(m.OnWallNS-m.OffWallNS) / float64(m.OffWallNS))
		}
		out = append(out, m)
	}
	return out, nil
}

// solveTranscript digests the deterministic surface of a result — costs,
// sample sizes, and candidates, everything but wall time — so two runs
// can be compared for bit-identity.
func solveTranscript(res *nearclique.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "rounds=%d frames=%d bits=%d maxframe=%d\n",
		res.Metrics.Rounds, res.Metrics.Frames, res.Metrics.Bits, res.Metrics.MaxFrameBits)
	fmt.Fprintf(h, "samples=%v\n", res.SampleSizes)
	for _, c := range res.Candidates {
		fmt.Fprintf(h, "cand label=%d ver=%d density=%.9f members=%v x=%v\n",
			c.Label, c.Version, c.Density, c.Members, c.SubsetX)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// --- search: batched ε-bisection probe throughput -------------------------

// searchPoint is one -search-batch workload: a planted instance searched
// (full ε bisection) across Seeds independent coin seeds on each listed
// engine.
type searchPoint struct {
	pt      expt.ScalePoint
	engines []nearclique.Engine
	seeds   int
}

// searchPoints is the -search-batch grid. The replay (seq) runs one
// shared traversal per search (probes are threshold re-evaluations);
// sharded simulates every probe — the serial-probes baseline the speedup
// column is against. Sharded is skipped at n=1e6, where nine simulated
// probes stop being a benchmark and start being an afternoon.
func searchPoints(quick bool) []searchPoint {
	all := []nearclique.Engine{nearclique.EngineSequential, nearclique.EngineSharded}
	if quick {
		return []searchPoint{
			{pt: expt.ScalePoint{N: 5_000, Size: 300, AvgDeg: 10}, engines: all, seeds: 2},
		}
	}
	return []searchPoint{
		{pt: expt.ScalePoint{N: 100_000, Size: 1000, AvgDeg: 12}, engines: all, seeds: 3},
		{
			pt:      expt.ScalePoint{N: 1_000_000, Size: 2000, AvgDeg: 10},
			engines: []nearclique.Engine{nearclique.EngineSequential},
			seeds:   1,
		},
	}
}

// searchBatchBenchmarks measures Solver.Search throughput per engine: a
// batch of full ε bisections over independent coin seeds, reported as
// probes/sec and seeds/sec (searches/sec). Every engine finds the same ε
// on the same seed — detection is engine-independent — so the rows differ
// only in what a probe costs.
func searchBatchBenchmarks(stderr io.Writer, quick bool, seed int64) ([]report.Measurement, error) {
	var out []report.Measurement
	for _, sp := range searchPoints(quick) {
		pt := sp.pt
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		name := fmt.Sprintf("search/planted-n%d", pt.N)
		rho := float64(pt.Size) / 4 / float64(pt.N) // need = Size/4, the find-grid floor
		var shardedNS int64
		for _, eng := range sp.engines {
			fmt.Fprintf(stderr, "bench: %s %s...\n", name, eng)
			m := report.Measurement{
				Workload:    name,
				Engine:      eng.String(),
				GraphDigest: inst.Graph.Digest(),
				N:           inst.Graph.N(),
				M:           inst.Graph.M(),
				Searches:    sp.seeds,
			}
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := 0; i < sp.seeds; i++ {
				s, err := nearclique.New(
					nearclique.WithEngine(eng),
					nearclique.WithExpectedSample(4*float64(pt.N)/float64(pt.Size)),
					nearclique.WithSeed(seed+1+int64(i)),
				)
				if err != nil {
					return nil, err
				}
				eps, _, err := s.Search(context.Background(), inst.Graph, rho)
				switch {
				case err == nil:
					// A successful bisection probes εMax once plus Steps
					// midpoints (the solver default, 8).
					m.Probes += 9
					if i == 0 {
						m.FoundEps = round4(eps)
					}
				case errors.Is(err, nearclique.ErrNotFound):
					m.Probes++ // the εMax probe alone
				default:
					return nil, fmt.Errorf("%s %s seed %d: %w", name, eng, i, err)
				}
			}
			m.WallNS = time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			m.Allocs = ms1.Mallocs - ms0.Mallocs
			m.HeapBytes = heapGrowth(&ms0, &ms1)
			if m.WallNS > 0 {
				secs := float64(m.WallNS) / 1e9
				m.ProbesPerSec = round2(float64(m.Probes) / secs)
				m.SeedsPerSec = round2(float64(sp.seeds) / secs)
			}
			if eng == nearclique.EngineSharded {
				shardedNS = m.WallNS
			}
			out = append(out, m)
		}
		if shardedNS > 0 {
			for i := range out {
				if out[i].Workload == name && out[i].Engine != "sharded" && out[i].WallNS > 0 {
					out[i].SpeedupSharded = round2(float64(shardedNS) / float64(out[i].WallNS))
				}
			}
		}
	}
	return out, nil
}

// --- count: Turán-shadow sampling throughput ------------------------------

// countBenchmarks measures the counting engine: per workload and clique
// size, one Count call (shadow build + all draws) best-of-k, reported as
// Measurement rows with the estimate columns filled — engine "shadow" in
// BENCH_engine.json, joining the solve rows downstream tooling already
// parses.
func countBenchmarks(stderr io.Writer, quick bool, seed int64) ([]report.Measurement, error) {
	pt := expt.ScalePoint{N: 100_000, Size: 1000, AvgDeg: 12}
	samples := 1 << 16
	if quick {
		pt = expt.ScalePoint{N: 5_000, Size: 300, AvgDeg: 10}
		samples = 1 << 13
	}
	inst := expt.ScaleInstance(pt, seed)
	inst.Graph.CSR()
	name := fmt.Sprintf("count/planted-n%d", pt.N)
	var out []report.Measurement
	for _, k := range []int{3, 4, 5} {
		fmt.Fprintf(stderr, "bench: %s k=%d...\n", name, k)
		solver, err := nearclique.New(
			nearclique.WithEngine(nearclique.EngineShadow),
			nearclique.WithCliqueSize(k),
			nearclique.WithSamples(samples),
			nearclique.WithSeed(seed+1),
		)
		if err != nil {
			return nil, err
		}
		m := report.Measurement{
			Workload: name, Engine: "shadow",
			GraphDigest: inst.Graph.Digest(),
			N:           inst.Graph.N(), M: inst.Graph.M(),
			K: k, CountSamples: samples,
		}
		const reps = 3
		for i := 0; i < reps; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := solver.Count(context.Background(), inst.Graph)
			wall := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", name, k, err)
			}
			if i == 0 || wall < m.WallNS {
				m.WallNS = wall
				m.Cliques = res.Cliques
				m.NearCliques = res.NearCliques
				m.Allocs = ms1.Mallocs - ms0.Mallocs
				m.HeapBytes = heapGrowth(&ms0, &ms1)
			}
		}
		if m.WallNS > 0 {
			// Both passes draw: the clique pass and (for ε > 0 with slack)
			// the near pass, 2·samples total draws per Count.
			m.SamplesPerSec = round2(float64(2*samples) / (float64(m.WallNS) / 1e9))
		}
		out = append(out, m)
	}
	return out, nil
}

// --- cost model: fit and drift gate --------------------------------------

// costDriftLimit is the CI gate: the committed model's predicted wall
// time must stay within this factor of the observed one in either
// direction.
const costDriftLimit = 3.0

// costFitSeeds is how many coin seeds each (point, engine) cell of the
// fit grid observes; 2 points × 4 seeds clears the model's per-engine
// minimum-sample gate even in -quick mode.
const costFitSeeds = 4

var costEngines = []nearclique.Engine{
	nearclique.EngineSequential,
	nearclique.EngineSharded,
}

// costPoints is the fixed fit/check grid. The full grid is a superset of
// the quick one, so a committed model fitted full always has the quick
// points in-distribution for the CI check.
func costPoints(quick bool) []expt.ScalePoint {
	pts := []expt.ScalePoint{
		{N: 2_000, Size: 150, AvgDeg: 8},
		{N: 5_000, Size: 300, AvgDeg: 10},
	}
	if !quick {
		pts = append(pts,
			expt.ScalePoint{N: 10_000, Size: 400, AvgDeg: 12},
			expt.ScalePoint{N: 50_000, Size: 800, AvgDeg: 12},
		)
	}
	return pts
}

// costSolve runs one grid solve and returns the features the server
// would price it by, the result, and the wall time.
func costSolve(g *nearclique.Graph, pt expt.ScalePoint, eng nearclique.Engine, seed int64) (costmodel.Features, *nearclique.Result, int64, error) {
	sample := 4 * float64(pt.N) / float64(pt.Size)
	feat := costmodel.Features{
		Engine:   eng.String(),
		N:        g.N(),
		M:        g.M(),
		Epsilon:  expt.ScaleEps,
		Sample:   sample,
		Versions: 1,
	}
	solver, err := nearclique.New(
		nearclique.WithEngine(eng),
		nearclique.WithEpsilon(expt.ScaleEps),
		nearclique.WithExpectedSample(sample),
		nearclique.WithMinSize(pt.Size/4),
		nearclique.WithSeed(seed),
	)
	if err != nil {
		return feat, nil, 0, err
	}
	start := time.Now()
	res, err := solver.Solve(context.Background(), g)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return feat, nil, 0, fmt.Errorf("costfit %s n=%d: %w", eng, pt.N, err)
	}
	return feat, res, wall, nil
}

// costCountK is the clique size the shadow rows of the fit/check grid
// run; costCountSamples the draw count. Fixed values keep the grid's
// shadow work spread on the (n, m) axis, which the regression needs.
const (
	costCountK       = 4
	costCountSamples = 4096
)

// costCount runs one grid count and returns the features the server
// would price it by, the result, and the wall time — the counting twin
// of costSolve.
func costCount(g *nearclique.Graph, seed int64) (costmodel.Features, *nearclique.CountResult, int64, error) {
	feat := costmodel.Features{
		Engine: "shadow",
		N:      g.N(),
		M:      g.M(),
		Sample: costCountSamples,
		K:      costCountK,
	}
	solver, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineShadow),
		nearclique.WithCliqueSize(costCountK),
		nearclique.WithSamples(costCountSamples),
		nearclique.WithSeed(seed),
	)
	if err != nil {
		return feat, nil, 0, err
	}
	start := time.Now()
	res, err := solver.Count(context.Background(), g)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return feat, nil, 0, fmt.Errorf("costfit shadow n=%d: %w", g.N(), err)
	}
	return feat, res, wall, nil
}

// costFitGrid solves the fixed grid and fits the admission cost model on
// the observed (rounds, bytes, wall) triples — the COSTMODEL.json
// generator. Shadow counting rows observe leaves in place of rounds (the
// estimator has no message rounds) and train the same regression the
// /v1/count admission path prices by.
func costFitGrid(stderr io.Writer, quick bool, seed int64) (*costmodel.Model, error) {
	model := costmodel.New()
	for _, pt := range costPoints(quick) {
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		for _, eng := range costEngines {
			fmt.Fprintf(stderr, "bench: costfit %s n=%d...\n", eng, pt.N)
			for i := 0; i < costFitSeeds; i++ {
				feat, res, wall, err := costSolve(inst.Graph, pt, eng, seed+1+int64(i))
				if err != nil {
					return nil, err
				}
				model.Observe(feat, int64(res.Metrics.Rounds), int64(res.Metrics.Bits)/8, wall)
			}
		}
		fmt.Fprintf(stderr, "bench: costfit shadow n=%d...\n", pt.N)
		for i := 0; i < costFitSeeds; i++ {
			feat, res, wall, err := costCount(inst.Graph, seed+1+int64(i))
			if err != nil {
				return nil, err
			}
			model.Observe(feat, int64(res.CliqueLeaves+res.NearLeaves), 0, wall)
		}
	}
	return model, nil
}

// costCheck is the CI drift gate: re-solve the fixed grid with the SAME
// coin seeds the fit observed and compare the geometric mean of observed
// wall times against the committed model's prediction. Solves are
// deterministic per seed, so re-solving the fit seeds replays the exact
// same work — per-seed work variance (15x at n=5·10⁴, from how many
// leaders the coins sample and how big their neighborhoods are) cancels,
// and the ratio isolates actual engine cost changes. Each seed takes the
// best of two runs to shed scheduler noise. A >costDriftLimit ratio in
// either direction fails — the committed pricing artifact must be
// regenerated when the engines' cost structure actually changes.
func costCheck(stderr io.Writer, quick bool, seed int64, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading cost model: %w (generate with -costfit)", err)
	}
	model := costmodel.New()
	if err := json.Unmarshal(blob, model); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	failed := false
	// check compares one cell's observed geometric-mean wall time against
	// the committed prediction, shared by the solve and count cells.
	check := func(label string, n int, feat costmodel.Features, observed float64) error {
		pred := model.Predict(feat)
		if !pred.Reliable() {
			return fmt.Errorf("no reliable %s prediction in %s (samples=%d): refit with -costfit",
				label, path, pred.Samples)
		}
		ratio := observed / pred.NS
		if ratio < 1 {
			ratio = 1 / ratio
		}
		status := "ok"
		if ratio > costDriftLimit {
			status = "DRIFT"
			failed = true
		}
		fmt.Fprintf(stderr, "bench: costcheck %s n=%d predicted=%.2fms observed=%.2fms ratio=%.2f %s\n",
			label, n, pred.NS/1e6, observed/1e6, ratio, status)
		return nil
	}
	for _, pt := range costPoints(quick) {
		inst := expt.ScaleInstance(pt, seed)
		inst.Graph.CSR()
		for _, eng := range costEngines {
			var logSum float64
			var feat costmodel.Features
			for i := 0; i < costFitSeeds; i++ {
				var best int64
				for rep := 0; rep < 2; rep++ {
					f, _, wall, err := costSolve(inst.Graph, pt, eng, seed+1+int64(i))
					if err != nil {
						return err
					}
					if rep == 0 || wall < best {
						best = wall
					}
					feat = f
				}
				logSum += math.Log(float64(best))
			}
			if err := check(eng.String(), pt.N, feat, math.Exp(logSum/costFitSeeds)); err != nil {
				return err
			}
		}
		// The shadow counting cell: same seeds, same best-of-2, same gate.
		var logSum float64
		var feat costmodel.Features
		for i := 0; i < costFitSeeds; i++ {
			var best int64
			for rep := 0; rep < 2; rep++ {
				f, _, wall, err := costCount(inst.Graph, seed+1+int64(i))
				if err != nil {
					return err
				}
				if rep == 0 || wall < best {
					best = wall
				}
				feat = f
			}
			logSum += math.Log(float64(best))
		}
		if err := check("shadow", pt.N, feat, math.Exp(logSum/costFitSeeds)); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("cost model drifted more than %gx from observed wall time; regenerate with -costfit and review what changed",
			costDriftLimit)
	}
	return nil
}
