// Command nearclique finds large near-cliques in a graph read from a file
// (or stdin), using Algorithm DistNearClique via the Solver API. Input
// formats are auto-detected: plain-text edge lists, gzip-compressed edge
// lists (.txt.gz), and `.ncsr` binary snapshots — the latter are
// memory-mapped rather than parsed, so even million-node graphs load in
// milliseconds (see cmd/gengraph -format snap).
//
// Usage:
//
//	nearclique [flags] [graph.edges | graph.txt.gz | graph.ncsr]
//
// Examples:
//
//	gengraph -family planted -n 500 -size 150 | nearclique -eps 0.25 -s 6
//	nearclique -eps 0.2 -s 8 -boost 4 -engine sharded web.edges
//	nearclique -engine sharded -timeout 30s -json web.ncsr
//	nearclique -refine near -json web.ncsr    # polish candidates post-run
//	nearclique -count 4 -samples 8192 -json web.ncsr   # Turán-shadow counting
//
// With -json the result is emitted as the machine-readable schema shared
// with cmd/bench (internal/report): engine, graph shape, cost block
// (rounds/frames/payload_bytes/wall_ns), candidates, and — for failed or
// canceled runs — the error alongside the partial costs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nearclique"
	"nearclique/internal/buildinfo"
	"nearclique/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nearclique", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		eps      = fs.Float64("eps", 0.25, "near-clique parameter ε ∈ (0, 0.5)")
		s        = fs.Float64("s", 6, "expected sample size s = p·n")
		p        = fs.Float64("p", 0, "sampling probability (overrides -s when set)")
		seed     = fs.Int64("seed", 1, "random seed")
		boost    = fs.Int("boost", 1, "boosting versions λ (Section 4.1)")
		minSize  = fs.Int("minsize", 0, "disqualify near-cliques smaller than this")
		engineFl = fs.String("engine", "", "auto | seq | sharded | async | shadow (default seq, or shadow with -count)")
		countK   = fs.Int("count", 0, "estimate k-clique and (k,ε)-near-clique counts by Turán-shadow sampling instead of solving (0 = off)")
		samples  = fs.Int("samples", 0, "estimator draws for -count (0 = the 4096 default)")
		conf     = fs.Float64("confidence", 0, "error-bound coverage 1−δ for -count (0 = the 0.99 default)")
		maxR     = fs.Int("maxrounds", 0, "deterministic round bound (0 = unlimited; simulator engines)")
		refineFl = fs.String("refine", "", `refinement post-pass: "near[:eps]" or "quasi:gamma", optionally ",moves=N,pool=N" (empty = off)`)
		timeout  = fs.Duration("timeout", 0, "cancel the run after this long (0 = no deadline)")
		trace    = fs.Int("trace", 0, "record up to N per-round flight events and dump them after the run (0 = off)")
		jsonOut  = fs.Bool("json", false, "emit the machine-readable result schema shared with cmd/bench")
		quiet    = fs.Bool("q", false, "print only the summary line")
		version  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("nearclique"))
		return 0
	}

	engine := nearclique.EngineSequential
	switch {
	case *engineFl != "":
		var err error
		if engine, err = nearclique.ParseEngine(*engineFl); err != nil {
			fmt.Fprintln(stderr, "nearclique:", err)
			return 2
		}
	case *countK > 0:
		engine = nearclique.EngineShadow
	}

	// File inputs dispatch by content: `.ncsr` snapshots are memory-mapped
	// (O(ms) even at a million nodes), plain or gzip-compressed edge lists
	// are parsed. Stdin is sniffed the same way, minus the mapping.
	var g *nearclique.Graph
	var err error
	if fs.NArg() > 0 {
		var closeGraph func() error
		g, closeGraph, err = nearclique.LoadGraph(fs.Arg(0))
		if err == nil {
			defer closeGraph()
		}
	} else {
		g, err = nearclique.ReadGraph(stdin)
	}
	if err != nil {
		fmt.Fprintln(stderr, "nearclique:", err)
		return 1
	}

	if *trace < 0 {
		fmt.Fprintln(stderr, "nearclique: -trace must be >= 0")
		return 2
	}
	if (*samples != 0 || *conf != 0) && *countK == 0 {
		fmt.Fprintln(stderr, "nearclique: -samples and -confidence require -count")
		return 2
	}
	if *countK > 0 {
		return runCount(g, engine, countConfig{
			k: *countK, samples: *samples, confidence: *conf,
			eps: *eps, seed: *seed, timeout: *timeout,
			trace: *trace, jsonOut: *jsonOut,
		}, stdout, stderr)
	}

	opts := []nearclique.Option{
		nearclique.WithEngine(engine),
		nearclique.WithEpsilon(*eps),
		nearclique.WithSeed(*seed),
		nearclique.WithVersions(*boost),
	}
	if *p > 0 {
		opts = append(opts, nearclique.WithSamplingProbability(*p))
	} else {
		opts = append(opts, nearclique.WithExpectedSample(*s))
	}
	if *minSize > 0 {
		opts = append(opts, nearclique.WithMinSize(*minSize))
	}
	if *maxR > 0 {
		opts = append(opts, nearclique.WithMaxRounds(*maxR))
	}
	if *refineFl != "" {
		spec, err := nearclique.ParseRefineSpec(*refineFl)
		if err != nil {
			fmt.Fprintln(stderr, "nearclique:", err)
			return 2
		}
		opts = append(opts, nearclique.WithRefine(spec))
	}
	var rec *nearclique.FlightRecorder
	if *trace > 0 {
		rec = nearclique.NewFlightRecorder(*trace)
		opts = append(opts, nearclique.WithFlightRecorder(rec))
	}
	solver, err := nearclique.New(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "nearclique:", err)
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, solveErr := solver.Solve(ctx, g)
	wall := time.Since(start)

	if *jsonOut {
		run := report.FromResult(engine.String(), g, res, wall, solveErr)
		run.Flight = report.FlightFromRecorder(rec, *trace)
		enc, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "nearclique:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(enc))
		if solveErr != nil {
			return 1
		}
		return 0
	}

	if solveErr != nil {
		fmt.Fprintln(stderr, "nearclique:", solveErr)
		return 1
	}

	simulated := engine == nearclique.EngineSharded || engine == nearclique.EngineAsync
	fmt.Fprintf(stdout, "graph: n=%d m=%d | found %d near-clique(s)",
		g.N(), g.M(), len(res.Candidates))
	if res.RefineSpec != "" && len(res.Candidates) > 0 {
		fmt.Fprintf(stdout, " | refined[%s] best size=%d density=%.4f moves=%d",
			res.RefineSpec, res.Metrics.RefinedSize, res.Metrics.RefinedDensity,
			res.Metrics.RefineMoves)
	}
	if simulated {
		fmt.Fprintf(stdout, " | rounds=%d frames=%d maxFrameBits=%d",
			res.Metrics.Rounds, res.Metrics.Frames, res.Metrics.MaxFrameBits)
		if engine == nearclique.EngineAsync {
			fmt.Fprintf(stdout, " | acks=%d safes=%d vtime=%d",
				res.Metrics.AsyncAcks, res.Metrics.AsyncSafes, res.Metrics.AsyncVirtualTime)
		}
	}
	fmt.Fprintln(stdout)
	if rec != nil {
		dumpTrace(stdout, rec)
	}
	if *quiet {
		return 0
	}
	for i, c := range res.Candidates {
		fmt.Fprintf(stdout, "#%d label=%d version=%d size=%d density=%.4f\n",
			i+1, c.Label, c.Version, len(c.Members), c.Density)
		fmt.Fprintf(stdout, "   members: %v\n", c.Members)
		fmt.Fprintf(stdout, "   sample subset X: %v\n", c.SubsetX)
		if i < len(res.Refined) {
			ref := res.Refined[i]
			fmt.Fprintf(stdout, "   refined: size=%d density=%.4f moves=%d seed=%d improved=%v\n",
				len(ref.Members), ref.Density, ref.Moves, ref.SeedVertex, ref.Improved)
		}
	}
	return 0
}

// countConfig carries the -count path's flags.
type countConfig struct {
	k, samples int
	confidence float64
	eps        float64
	seed       int64
	timeout    time.Duration
	trace      int
	jsonOut    bool
}

// runCount executes the counting path: estimate the k-clique and
// (k,ε)-near-clique counts by Turán-shadow sampling and print them with
// their Hoeffding bounds — or, with -json, the CountRun schema shared
// with /v1/count and cmd/bench -count.
func runCount(g *nearclique.Graph, engine nearclique.Engine, cc countConfig, stdout, stderr io.Writer) int {
	opts := []nearclique.Option{
		nearclique.WithEngine(engine),
		nearclique.WithCliqueSize(cc.k),
		nearclique.WithEpsilon(cc.eps),
		nearclique.WithSeed(cc.seed),
	}
	if cc.samples > 0 {
		opts = append(opts, nearclique.WithSamples(cc.samples))
	}
	if cc.confidence > 0 {
		opts = append(opts, nearclique.WithConfidence(cc.confidence))
	}
	var rec *nearclique.FlightRecorder
	if cc.trace > 0 {
		rec = nearclique.NewFlightRecorder(cc.trace)
		opts = append(opts, nearclique.WithFlightRecorder(rec))
	}
	solver, err := nearclique.New(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "nearclique:", err)
		return 2
	}
	ctx := context.Background()
	if cc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cc.timeout)
		defer cancel()
	}

	start := time.Now()
	res, countErr := solver.Count(ctx, g)
	wall := time.Since(start)

	if cc.jsonOut {
		run := report.FromCount("shadow", g, res, wall, countErr)
		run.Flight = report.FlightFromRecorder(rec, cc.trace)
		enc, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "nearclique:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(enc))
		if countErr != nil {
			return 1
		}
		return 0
	}

	if countErr != nil {
		fmt.Fprintln(stderr, "nearclique:", countErr)
		return 1
	}
	mode := "sampled"
	if res.Exact {
		mode = "exact"
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d | k=%d eps=%v (%s)\n", g.N(), g.M(), res.K, res.Epsilon, mode)
	fmt.Fprintf(stdout, "cliques: %.6g ± %.4g (hits %d/%d, %d leaves, weight %.6g)\n",
		res.Cliques, res.CliquesErrBound, res.CliqueHits, res.Samples, res.CliqueLeaves, res.CliqueWeight)
	fmt.Fprintf(stdout, "near-cliques: %.6g ± %.4g (hits %d/%d, %d leaves, weight %.6g)\n",
		res.NearCliques, res.NearErrBound, res.NearHits, res.Samples, res.NearLeaves, res.NearWeight)
	if rec != nil {
		dumpTrace(stdout, rec)
	}
	return 0
}

// dumpTrace prints the flight-recorder contents: a one-line accounting
// summary (an explicitly asked-for trace always reports what it kept and
// what the ring shed) followed by one line per retained event, oldest
// first.
func dumpTrace(w io.Writer, rec *nearclique.FlightRecorder) {
	events := rec.Snapshot()
	fmt.Fprintf(w, "trace: events=%d offered=%d dropped=%d\n",
		len(events), rec.Offered(), rec.Dropped())
	for _, ev := range events {
		fmt.Fprintf(w, "  [%s] phase=%s round=%d frontier=%d frames=%d bytes=%d",
			ev.Kind, rec.PhaseName(ev.Phase), ev.Round, ev.Frontier, ev.Frames, ev.Bytes)
		if ev.HeapDelta != 0 {
			fmt.Fprintf(w, " heapΔ=%+d", ev.HeapDelta)
		}
		fmt.Fprintln(w)
	}
}
