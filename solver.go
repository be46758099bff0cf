package nearclique

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"nearclique/internal/core"
	"nearclique/internal/flight"
	"nearclique/internal/refine"
)

// Engine selects how a Solver executes DistNearClique. Every engine
// produces bit-identical protocol outputs on the same seed (asserted by
// the determinism suites); they differ only in what they cost and which
// metrics they measure.
type Engine uint8

const (
	// EngineAuto runs the centralized replay of EngineSequential, for
	// Solve and Search alike. Choose a simulator engine explicitly when you
	// need round/frame/bit metrics.
	EngineAuto Engine = iota
	// EngineSequential is the centralized replay (core.FindSequential):
	// identical outputs, no message simulation, the fastest and lightest
	// option. Components are discovered by 64-seed cluster floods over
	// the CSR arena and each component's voters are gathered from its
	// members' rows alone; with a flight recorder attached it emits one
	// round event per traversal wave. Search runs that traversal once and
	// re-evaluates only the ε-dependent thresholds per probe
	// (core.SearchCachedContext), since the sampling coins never depend
	// on ε.
	EngineSequential
	// EngineSharded is the sharded flat-buffer CONGEST simulator
	// (DESIGN.md §5): full metrics, scales to million-node graphs.
	EngineSharded
	// EngineAsync is the event-driven asynchronous executor with
	// Awerbuch's α-synchronizer; the synchronizer overhead appears in the
	// Async* metrics.
	EngineAsync
	// EngineShadow is the Turán-shadow counting engine (internal/shadow):
	// degeneracy-ordered DAG refinement plus weighted sampling that
	// estimates k-clique and near-clique counts with provable error
	// bounds. It serves the Count and Sample APIs only — Solve and Search
	// report one candidate per component, which is not what a counting
	// query asks — and is bit-reproducible at fixed seed across any
	// parallelism, like every other engine.
	EngineShadow
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequential:
		return "seq"
	case EngineSharded:
		return "sharded"
	case EngineAsync:
		return "async"
	case EngineShadow:
		return "shadow"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine maps the flag spellings used by the cmd/ tools ("auto",
// "seq", "sharded", "async", "shadow") to an Engine. The aliases
// "sequential" and "frontier" map to EngineSequential and "legacy" maps
// to EngineSharded, so each alias shares its engine's canonical name,
// cache keys and cost-model curve.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "seq", "sequential", "frontier":
		return EngineSequential, nil
	case "sharded", "legacy":
		return EngineSharded, nil
	case "async":
		return EngineAsync, nil
	case "shadow":
		return EngineShadow, nil
	}
	return EngineAuto, fmt.Errorf("nearclique: unknown engine %q (want auto|seq|sharded|async|shadow)", s)
}

// config is the resolved Solver configuration. The embedded core options
// carry the protocol knobs; the rest is serving-side plumbing.
type config struct {
	opts        core.Options
	engine      Engine
	versionsSet bool
	batch       int
	searchSteps int
	searchMin   float64
	searchMax   float64
	refine      *refine.Spec

	// Counting-path knobs (EngineShadow; see count.go).
	cliqueSize int
	samples    int
	confidence float64
}

// Option configures a Solver at construction time.
type Option func(*config) error

// WithEngine selects the execution engine (default EngineAuto).
func WithEngine(e Engine) Option {
	return func(c *config) error {
		if e > EngineShadow {
			return fmt.Errorf("nearclique: invalid engine %d", uint8(e))
		}
		c.engine = e
		return nil
	}
}

// WithEpsilon sets the near-clique parameter ε ∈ (0, 0.5); default 0.25.
func WithEpsilon(eps float64) Option {
	return func(c *config) error {
		if !(0 < eps && eps < 0.5) { // NaN fails every comparison
			return fmt.Errorf("nearclique: Epsilon %v outside (0, 0.5)", eps)
		}
		c.opts.Epsilon = eps
		return nil
	}
}

// WithExpectedSample sets the expected sample size s = p·n (default 6)
// and clears any sampling probability set earlier.
func WithExpectedSample(s float64) Option {
	return func(c *config) error {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("nearclique: ExpectedSample %v not positive and finite", s)
		}
		c.opts.ExpectedSample, c.opts.P = s, 0
		return nil
	}
}

// WithSamplingProbability pins the sampling probability p ∈ (0, 1]
// directly, overriding the expected-sample-size parameterization.
func WithSamplingProbability(p float64) Option {
	return func(c *config) error {
		if !(0 < p && p <= 1) {
			return fmt.Errorf("nearclique: sampling probability %v outside (0, 1]", p)
		}
		c.opts.P, c.opts.ExpectedSample = p, 0
		return nil
	}
}

// WithSeed sets the seed driving every coin flip (default 1). Identical
// seeds give identical runs on every engine.
func WithSeed(seed int64) Option {
	return func(c *config) error { c.opts.Seed = seed; return nil }
}

// WithVersions sets the boosting parameter λ of Section 4.1: that many
// independent sampling+exploration stages feed one decision stage.
// Default 1 for Solve; Search defaults to 4 unless set explicitly.
func WithVersions(v int) Option {
	return func(c *config) error {
		if v < 1 {
			return fmt.Errorf("nearclique: Versions %d below 1", v)
		}
		c.opts.Versions = v
		c.versionsSet = true
		return nil
	}
}

// WithMinSize disqualifies committed candidates smaller than min.
func WithMinSize(min int) Option {
	return func(c *config) error {
		if min < 0 {
			return fmt.Errorf("nearclique: MinSize %d negative", min)
		}
		c.opts.MinSize = min
		return nil
	}
}

// WithMaxRounds bounds total communication rounds (Section 4.1's
// deterministic running-time wrapper); exceeding it returns ErrRoundLimit
// with partial metrics. 0 (the default) disables the bound.
func WithMaxRounds(r int) Option {
	return func(c *config) error {
		if r < 0 {
			return fmt.Errorf("nearclique: MaxRounds %d negative", r)
		}
		c.opts.MaxRounds = r
		return nil
	}
}

// WithMaxComponentSize caps sampled-component sizes (the exploration stage
// enumerates 2^|Si| subsets); exceeding it returns ErrComponentTooLarge.
func WithMaxComponentSize(k int) Option {
	return func(c *config) error {
		if k < 1 || k > core.HardMaxComponentSize {
			return fmt.Errorf("nearclique: MaxComponentSize %d outside [1, %d]", k, core.HardMaxComponentSize)
		}
		c.opts.MaxComponentSize = k
		return nil
	}
}

// WithParallelism bounds the worker goroutines of one run — the
// replay's (engine auto and seq, Solve and Search) and the simulators';
// 0 (the default) means GOMAXPROCS. Outputs are identical at any
// setting.
func WithParallelism(w int) Option {
	return func(c *config) error {
		if w < 0 {
			return fmt.Errorf("nearclique: Parallelism %d negative", w)
		}
		c.opts.Parallelism = w
		return nil
	}
}

// WithProgress installs a synchronous callback invoked after every
// completed protocol step; see Progress for the engine-dependent step
// granularity. The callback must not block for long — it runs on the
// solving goroutine — and must not mutate the run. Under SolveBatch the
// one callback is shared by every in-flight run, so it MUST be safe for
// concurrent use; Progress.Item carries the batch index to tell the
// runs apart.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) error { c.opts.Progress = fn; return nil }
}

// RefineSpec configures the refinement post-pass; see WithRefine and the
// field documentation in the refine package. Parse the flag/request
// spelling ("near", "near:0.2", "quasi:0.6,moves=128") with
// ParseRefineSpec; the zero value is a valid near-clique spec inheriting
// the run's ε.
type RefineSpec = refine.Spec

// Refinement objectives for RefineSpec.Objective.
const (
	// RefineNearClique maximizes candidate size subject to edge density
	// ≥ 1−ε (RefineSpec.Epsilon, or the run's ε when zero).
	RefineNearClique = refine.ObjectiveNearClique
	// RefineQuasiClique maximizes candidate size subject to edge density
	// ≥ γ (RefineSpec.Gamma).
	RefineQuasiClique = refine.ObjectiveQuasiClique
)

// RefinedCandidate is the refinement post-pass output for one committed
// candidate; see Result.Refined.
type RefinedCandidate = refine.Refined

// ParseRefineSpec parses the textual refinement spec used by the cmd/
// -refine flags and the server's "refine" request parameter, normalizing
// equivalent spellings to one canonical Spec (and Spec.String()).
func ParseRefineSpec(s string) (RefineSpec, error) { return refine.ParseSpec(s) }

// WithRefine enables the deterministic local-search refinement post-pass:
// after the base run commits its candidates (bit-identical to an
// unrefined run — refinement never touches the protocol transcript), each
// candidate is greedily polished by neighborhood-seeded growth, peeling,
// and swap moves scored by incremental edge-density deltas. Refined
// output lands in Result.Refined and the Metrics Refined* fields; the
// refined set's density is never below the base candidate's. The
// post-pass draws only from its own counter-based RNG stream keyed by
// (seed, candidate rank), so refined output is bit-identical across
// engines, GOMAXPROCS, and batch concurrency, like the base run. The
// pass observes the Solve context at every move: on cancellation the
// error wraps the context error and the Result keeps the completed base
// run with no refined output.
func WithRefine(spec RefineSpec) Option {
	return func(c *config) error {
		if err := spec.Validate(); err != nil {
			return err
		}
		c.refine = &spec
		return nil
	}
}

// FlightRecorder re-exports the per-round flight recorder: a fixed-size
// lock-free ring of engine execution events; see the flight package for
// the slot protocol and the exact-accounting invariant.
type FlightRecorder = flight.Recorder

// FlightEvent re-exports one recorded flight observation.
type FlightEvent = flight.Event

// Flight event kinds.
const (
	// FlightRound is one simulated communication round.
	FlightRound = flight.KindRound
	// FlightPhase is one completed protocol phase summary.
	FlightPhase = flight.KindPhase
)

// DefaultFlightCapacity is the ring size NewFlightRecorder(0) uses.
const DefaultFlightCapacity = flight.DefaultCapacity

// NewFlightRecorder builds a recorder retaining the most recent capacity
// events (rounded up to a power of two; 0 means flight.DefaultCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder { return flight.New(capacity) }

// WithFlightRecorder attaches a flight recorder to every run the Solver
// executes: the engines emit per-round and per-phase events (round index,
// frontier size, frames, payload bytes, heap delta) into the recorder's
// fixed-size lock-free ring. Recording is purely observational — outputs
// and transcripts are bit-identical with or without it (pinned by the
// golden suite) — and never blocks a round: under contention events are
// dropped and counted, not waited for. Under SolveBatch the one recorder
// is shared by every in-flight run; it is safe for that concurrency, and
// the exact-accounting invariant Offered == retained + Dropped holds
// across the whole batch. Pass nil to detach.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(c *config) error { c.opts.Flight = rec; return nil }
}

// WithAsyncMaxDelay bounds per-message delay in virtual time units for
// EngineAsync (default 5).
func WithAsyncMaxDelay(d int) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("nearclique: AsyncMaxDelay %d negative", d)
		}
		c.opts.AsyncMaxDelay = d
		return nil
	}
}

// WithBatchWorkers bounds the concurrent runs a SolveBatch call uses;
// 0 (the default) means GOMAXPROCS.
func WithBatchWorkers(w int) Option {
	return func(c *config) error {
		if w < 0 {
			return fmt.Errorf("nearclique: BatchWorkers %d negative", w)
		}
		c.batch = w
		return nil
	}
}

// WithSearchSteps sets the number of bisection steps Search performs
// (default 8).
func WithSearchSteps(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("nearclique: SearchSteps %d below 1", n)
		}
		c.searchSteps = n
		return nil
	}
}

// WithSearchBounds sets the ε interval Search bisects over
// (default [0.02, 0.45]).
func WithSearchBounds(min, max float64) Option {
	return func(c *config) error {
		if !(0 < min && min < max && max < 0.5) {
			return fmt.Errorf("nearclique: search bounds [%v, %v] invalid (need 0 < min < max < 0.5)", min, max)
		}
		c.searchMin, c.searchMax = min, max
		return nil
	}
}

// Progress re-exports the per-step progress record delivered to
// WithProgress callbacks.
type Progress = core.Progress

// Solver is a reusable, immutable, goroutine-safe configuration of
// DistNearClique. Construct one with New, then call Solve, SolveBatch, or
// Search any number of times, concurrently if desired: a Solver holds no
// per-run state (per-run scratch is drawn from internal pools), and runs
// on the same seed are bit-for-bit reproducible on every engine.
type Solver struct {
	cfg config
}

// New builds a Solver from functional options, validating each eagerly so
// misconfiguration fails at construction, not mid-serve. Defaults:
// EngineAuto, ε = 0.25, expected sample 6, seed 1, one boosting version.
func New(options ...Option) (*Solver, error) {
	cfg := config{
		opts: core.Options{Epsilon: 0.25, ExpectedSample: 6, Seed: 1},
	}
	for _, opt := range options {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Solver{cfg: cfg}, nil
}

// Engine returns the configured execution engine.
func (s *Solver) Engine() Engine { return s.cfg.engine }

// Solve runs DistNearClique on g. The context cancels cooperatively: the
// simulator engines observe it at every round boundary and the sequential
// engine between versions and components, so even million-node runs stop
// within one round's worth of work. On cancellation the error wraps
// context.Canceled or context.DeadlineExceeded and the returned Result
// carries the metrics accumulated so far with all-⊥ labels, mirroring the
// paper's abort wrapper (likewise for ErrRoundLimit and
// ErrComponentTooLarge).
func (s *Solver) Solve(ctx context.Context, g *Graph) (*Result, error) {
	return s.solve(ctx, g, s.cfg.opts)
}

// solve dispatches one run with the given resolved options, then applies
// the refinement post-pass when configured. Refinement runs only on
// clean completions: aborted or canceled runs return their partial base
// metrics untouched.
func (s *Solver) solve(ctx context.Context, g *Graph, opts core.Options) (*Result, error) {
	var res *Result
	var err error
	switch s.cfg.engine {
	case EngineAuto, EngineSequential:
		opts.Async = false
		res, err = core.FindSequentialContext(ctx, g, opts)
	case EngineSharded, EngineAsync:
		opts.Async = s.cfg.engine == EngineAsync
		res, err = core.FindContext(ctx, g, opts)
	case EngineShadow:
		return nil, errors.New("nearclique: engine=shadow serves Count/Sample, not Solve")
	}
	if err == nil && res != nil && s.cfg.refine != nil {
		err = s.applyRefine(ctx, g, res, opts)
	}
	return res, err
}

// applyRefine runs the refinement post-pass over every committed
// candidate of a completed run. It is pure post-processing: the base
// labels, candidates, and simulator metrics are already final and stay
// bit-identical to an unrefined run; the pass only fills Result.Refined,
// Result.RefineSpec, and the Metrics Refined* counters. Candidates are
// keyed by their rank in the (deterministically sorted) candidate list,
// so the post-pass RNG stream — and therefore the refined output — is a
// function of (graph, transcript, spec, seed) alone.
//
// The context is observed at every local-search move, so serving
// deadlines bound the post-pass like they bound the run. Cancellation is
// all-or-nothing: the error wraps the context error, the base result
// stays intact and valid, and no partial refinement is exposed —
// mirroring the abort convention of the run itself.
func (s *Solver) applyRefine(ctx context.Context, g *Graph, res *Result, opts core.Options) error {
	spec := *s.cfg.refine
	refined := make([]RefinedCandidate, len(res.Candidates))
	r := refine.New(g)
	// Batch the candidates' grow-pool seed neighborhoods through one
	// frontier sweep before the per-candidate loop: with several
	// committed candidates one pull pass over the arena replaces one
	// row walk per candidate. Purely a fetch strategy — Prime returns
	// content-identical neighbor lists, so refined output is unchanged
	// (pinned by the refine goldens).
	pools := make([][]int, len(res.Candidates))
	for i, c := range res.Candidates {
		pools[i] = c.Members
	}
	if err := r.Prime(ctx, pools); err != nil {
		return fmt.Errorf("nearclique: refinement aborted: %w", err)
	}
	moves, bestSize, bestDensity := 0, 0, 0.0
	for i, c := range res.Candidates {
		ref, err := r.Candidate(ctx, c.Label, c.Members, spec, opts.Epsilon, opts.Seed, i)
		if err != nil {
			return fmt.Errorf("nearclique: refinement aborted: %w", err)
		}
		refined[i] = ref
		moves += ref.Moves
		if len(ref.Members) > bestSize ||
			(len(ref.Members) == bestSize && ref.Density > bestDensity) {
			bestSize, bestDensity = len(ref.Members), ref.Density
		}
	}
	res.RefineSpec = spec.String()
	res.Refined = refined
	res.Metrics.RefineMoves = moves
	res.Metrics.RefinedSize = bestSize
	res.Metrics.RefinedDensity = bestDensity
	return nil
}

// SolveBatch runs the solver over a batch of immutable graphs on a
// bounded worker pool (WithBatchWorkers), the serving path for
// heavy-traffic workloads. Results are index-aligned with graphs; each
// entry is exactly what Solve(ctx, graphs[i]) returns — same seed, same
// coins, bit-identical — so batching never changes answers, only
// concurrency. Workers reuse pooled per-run scratch, so steady-state
// batches allocate per graph, not per node.
//
// Per-item failures do not stop the batch: results[i] may carry a partial
// result while the joined error (errors.Join, one wrapped error per
// failed item) reports every failure. Cancelling ctx stops in-flight runs
// at their next round boundary and fails not-yet-started items with the
// context error.
func (s *Solver) SolveBatch(ctx context.Context, graphs []*Graph) ([]*Result, error) {
	results := make([]*Result, len(graphs))
	errs := make([]error, len(graphs))
	workers := s.cfg.batch
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(graphs) {
		workers = len(graphs)
	}
	if workers == 0 {
		return results, nil
	}

	opts := s.batchOptions(workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(graphs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("nearclique: batch item %d: %w", i, err)
					continue
				}
				itemOpts := opts
				if fn := opts.Progress; fn != nil {
					// Stamp the batch index so a shared callback can tell
					// concurrent runs apart.
					idx := i
					itemOpts.Progress = func(p Progress) {
						p.Item = idx
						fn(p)
					}
				}
				res, err := s.solve(ctx, graphs[i], itemOpts)
				results[i] = res
				if err != nil {
					errs[i] = fmt.Errorf("nearclique: batch item %d: %w", i, err)
				}
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// batchOptions returns the run options of a batch on workers
// goroutines. Unless WithParallelism set a bound, the runs split the
// machine between them instead of oversubscribing it: every engine, the
// replay included, starts up to Parallelism workers per run. Per-run
// worker counts never change outputs (pinned by the determinism
// suites), only speed.
func (s *Solver) batchOptions(workers int) core.Options {
	opts := s.cfg.opts
	if workers > 1 && opts.Parallelism == 0 {
		opts.Parallelism = max(1, runtime.GOMAXPROCS(0)/workers)
	}
	return opts
}

// Search estimates the smallest ε at which g contains a reportable ε-near
// clique of ≥ rho·n nodes, by bisection over boosted probe runs (the
// practical analogue of Fischer & Newman's minimum-distance estimation).
// Tune it with WithSearchSteps and WithSearchBounds. Probes observe ctx, and
// cancellation surfaces as a wrapped context error — never as ErrNotFound.
// With WithRefine configured the winning probe's result is refined like a
// Solve result, a near-objective spec inheriting the found ε.
//
// Probes execute on the configured engine: EngineAuto and
// EngineSequential run the replay's traversal once for the whole
// bisection, since the sampling coins never depend on ε, while the
// simulator engines simulate every probe (so probe cost reflects the
// engine, with metrics to match). The returned ε and Result transcript
// are identical on every engine, pinned by the search parity suite.
// WithMaxComponentSize caps every probe's components as it caps Solve's.
func (s *Solver) Search(ctx context.Context, g *Graph, rho float64) (float64, *Result, error) {
	versions := 0 // core's search default (4): probes must be reliable
	if s.cfg.versionsSet {
		versions = s.cfg.opts.Versions
	}
	// SearchOptions parameterizes sampling by expected size only; a
	// solver configured with WithSamplingProbability probes at the
	// equivalent s = p·n so Search and Solve sample identically.
	sample := s.cfg.opts.ExpectedSample
	if s.cfg.opts.P > 0 {
		sample = s.cfg.opts.P * float64(g.N())
	}
	so := core.SearchOptions{
		Rho:              rho,
		ExpectedSample:   sample,
		Versions:         versions,
		Steps:            s.cfg.searchSteps,
		EpsMin:           s.cfg.searchMin,
		EpsMax:           s.cfg.searchMax,
		Seed:             s.cfg.opts.Seed,
		MaxComponentSize: s.cfg.opts.MaxComponentSize,
		Parallelism:      s.cfg.opts.Parallelism,
		Flight:           s.cfg.opts.Flight,
	}
	var eps float64
	var res *Result
	var err error
	switch s.cfg.engine {
	case EngineShadow:
		return 0, nil, errors.New("nearclique: engine=shadow serves Count/Sample, not Search")
	case EngineAuto, EngineSequential:
		eps, res, err = core.SearchCachedContext(ctx, g, so)
	case EngineSharded, EngineAsync:
		eps, res, err = core.SearchWithRunner(ctx, g, so,
			func(ctx context.Context, g *Graph, opts core.Options) (*Result, error) {
				opts.MaxRounds = s.cfg.opts.MaxRounds
				opts.AsyncMaxDelay = s.cfg.opts.AsyncMaxDelay
				opts.Async = s.cfg.engine == EngineAsync
				return core.FindContext(ctx, g, opts)
			})
	}
	if err == nil && res != nil && s.cfg.refine != nil {
		opts := s.cfg.opts
		opts.Epsilon = eps // the run ε an inherit-mode near spec resolves to
		err = s.applyRefine(ctx, g, res, opts)
	}
	return eps, res, err
}
