package core

import (
	"context"
	"fmt"
	"slices"

	"nearclique/internal/flight"
	"nearclique/internal/frontier"
	"nearclique/internal/graph"
)

// FindSequential runs the identical algorithm centrally: same coin flips
// (per-node counter streams derived exactly as the simulator derives
// them), same component structure, same subset enumeration, thresholds,
// argmax, and voting rules. Its output is bit-for-bit equal to Find's on
// the same inputs (asserted by the equivalence tests), and it scales
// further because no messages are simulated. Like the protocol it
// replays, it is local: a version costs O(n) for the coins plus, per
// sampled component, work proportional to its members' neighborhoods,
// and a run adds one O(n) pass of ID draws to elect the roots.
//
// Options.MaxRounds is ignored (there are no rounds); everything else
// behaves as in Find.
func FindSequential(g *graph.Graph, opts Options) (*Result, error) {
	return FindSequentialContext(context.Background(), g, opts)
}

// FindSequentialContext is FindSequential with cooperative cancellation:
// the context is observed between boosting versions and between sampled
// components, the units of work of the centralized replay. On cancellation
// the error wraps context.Canceled or context.DeadlineExceeded and the
// returned Result carries whatever sample sizes were measured before the
// interruption, with all-⊥ labels.
//
// Components are discovered by 64-seed cluster floods over the CSR arena
// (internal/frontier). With Options.Flight set, the replay emits one
// flight.KindRound event per traversal wave — the wave's frontier
// population and the arena entries it examined — plus one KindPhase per
// boosting version and for the decision stage. The simulator Metrics
// stay zero: nothing is simulated.
//
// Per-run scratch (the ID walk's draws, the traversal sets, the voter
// index) is drawn from a package-level pool, so repeated solves — in
// particular concurrent batch serving over shared immutable graphs — do
// not reallocate it. Pooling is invisible in the outputs: re-keyed
// streams are bit-identical to fresh ones.
func FindSequentialContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts, err := opts.validated(g.N())
	if err != nil {
		return nil, err
	}
	n := g.N()
	res := &Result{
		Labels:      make([]int64, n),
		SampleSizes: make([]int, opts.Versions),
	}
	for i := range res.Labels {
		res.Labels[i] = NoLabel
	}

	scratch := getSeqScratch()
	defer putSeqScratch(scratch)

	ft := newFlightTrace(opts.Flight)
	comps, err := collectComps(ctx, g, opts, scratch, ft, res, func(sc *seqComp) {
		sc.finish(opts.Epsilon, opts.MinSize, &scratch.kt)
	})
	if err != nil {
		return res, err
	}

	// Decision stage: every voter acks its best adjacent candidate and
	// aborts the rest; a candidate commits iff no adjacent voter aborted.
	ft.begin("decide")
	decideAndCommit(g, opts, comps, res)
	ft.end(len(comps))
	if opts.Progress != nil {
		opts.Progress(Progress{
			Version: -1, Phase: "decide",
			Step: opts.Versions + 1, Total: opts.Versions + 1,
		})
	}
	return res, nil
}

// collectComps runs the ε-invariant half of a replay: the sampling coins
// (version j draws the (2j+1)-th and (2j+2)-th floats of each node's
// stream, exactly as the distributed nodes do), 64-seed batched
// component discovery, each component's voters, and its ε-invariant K/T
// kernel tables. visit observes each component in transcript order — the
// solve finishes thresholds there, the search cache defers them to its
// probes. Shared so that a solve and a search probe provably traverse
// identically.
func collectComps(ctx context.Context, g *graph.Graph, opts Options, scratch *seqScratch, ft *flightTrace, res *Result, visit func(sc *seqComp)) ([]*seqComp, error) {
	n := g.N()
	scratch.sizeFor(n)
	scratch.coins.Reset(opts.Seed)
	coins, inS := &scratch.coins, scratch.inS

	p1 := opts.P / 2
	p2 := 0.0
	if p1 < 1 {
		p2 = (opts.P - p1) / (1 - p1)
	}

	var comps []*seqComp
	for ver := 0; ver < opts.Versions; ver++ {
		if err := ctx.Err(); err != nil {
			return comps, fmt.Errorf("core: sequential run interrupted at version %d: %w", ver, err)
		}
		ft.begin(fmt.Sprintf("v%d/explore", ver))
		inS.Clear()
		for v := 0; v < n; v++ {
			if f1, f2 := coins.Pair(v, ver); f1 < p1 || f2 < p2 {
				inS.Add(v)
			}
		}
		res.SampleSizes[ver] = inS.Count()

		for ci, members := range frontier.Components(g, inS, scratch.fsc, ft.onWave()) {
			if ci%seqCtxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return comps, fmt.Errorf("core: sequential run interrupted at version %d: %w", ver, err)
				}
			}
			if len(members) > res.MaxComponent {
				res.MaxComponent = len(members)
			}
			if len(members) > opts.MaxComponentSize {
				return comps, fmt.Errorf("%w: %d > %d (lower the sampling probability)",
					ErrComponentTooLarge, len(members), opts.MaxComponentSize)
			}
			sc := newSeqComp(members, ver)
			sc.voters = scratch.gatherVoters(g, members)
			sc.buildKT(g, &scratch.kt)

			visit(sc)
			comps = append(comps, sc)
		}
		if ver == opts.Versions-1 {
			scratch.electRoots(comps, n, opts.Seed)
		}
		ft.end(res.SampleSizes[ver])
		if opts.Progress != nil {
			opts.Progress(Progress{
				Version: ver, Phase: fmt.Sprintf("v%d/explore", ver),
				Step: ver + 1, Total: opts.Versions + 1,
			})
		}
	}
	return comps, nil
}

// electRoots sets every component's root, the member of minimum
// protocol ID that the distributed protocol elects. The IDs come from
// one backward walk over the ID permutation's draws that tracks only the
// members (congest.IDWalk), so the replay never builds the n-node
// permutation. Nothing reads a root before the decision stage.
func (s *seqScratch) electRoots(comps []*seqComp, n int, seed int64) {
	s.nodes = s.nodes[:0]
	for _, sc := range comps {
		s.nodes = append(s.nodes, sc.members...)
	}
	s.ids = s.walk.SampledIDs(s.ids, s.nodes, n, seed, s.mark)
	ids := s.ids
	for _, sc := range comps {
		sc.electRoot(ids[:len(sc.members)])
		ids = ids[len(sc.members):]
	}
}

// gatherVoters returns a component's voters: its members plus every
// unsampled neighbor of a member — exactly the tree nodes and claimants
// of the distributed protocol — sorted ascending, the order the K/T
// kernel numbers its mask classes in. Only the members' rows are read:
// the mark set keeps a neighbor shared by several members from being
// listed twice, and exactly the bits set here are cleared again, so a
// component costs O(Σ deg(members) + |voters| log |voters|), never O(n).
func (s *seqScratch) gatherVoters(g *graph.Graph, members []int) []int {
	buf := append(s.voterBuf[:0], members...)
	for _, m := range members {
		for _, w := range g.Neighbors(m) {
			if u := int(w); !s.inS.Contains(u) && !s.mark.Contains(u) {
				s.mark.Add(u)
				buf = append(buf, u)
			}
		}
	}
	for _, u := range buf[len(members):] {
		s.mark.Remove(u)
	}
	slices.Sort(buf)
	s.voterBuf = buf
	return slices.Clone(buf)
}

// seqComp is the sequential mirror of one sampled component Si.
type seqComp struct {
	version int
	rootIdx int32
	rootID  int64
	members []int32 // sorted
	voters  []int   // Si ∪ (Γ(Si) \ S), sorted
	kt      ktTables
	tbits   []uint64 // per voter, tWords words: T_ε(X_b) membership
	tWords  int
	tcounts []int32
	bStar   int32
	size    int32 // announced |T|; 0 = no candidate
}

// flightTrace adapts the flight recorder to the replay's event stream:
// one KindRound per traversal wave (Frontier = wave population, Frames =
// arena entries examined, Bytes = the 4-byte targets those loads moved),
// one KindPhase per boosting version plus the decision stage, with heap
// deltas sampled only at phase boundaries like every other engine. A nil
// *flightTrace is valid and free: every method no-ops, so the hot path
// carries no recorder branches of its own.
type flightTrace struct {
	rec    *flight.Recorder
	heap   int64
	ord    int32
	rounds int64 // cumulative wave index across the run
	phaseW int64 // waves within the current phase
	waveFn func(pop int, examined int64)
}

func newFlightTrace(rec *flight.Recorder) *flightTrace {
	if rec == nil {
		return nil
	}
	ft := &flightTrace{rec: rec, heap: flight.HeapBytes(), ord: -1}
	ft.waveFn = func(pop int, examined int64) {
		ft.rounds++
		ft.phaseW++
		ft.rec.Record(flight.Event{
			Kind:     flight.KindRound,
			Phase:    ft.ord,
			Round:    ft.rounds,
			Frontier: int32(pop),
			Frames:   examined,
			Bytes:    4 * examined,
		})
	}
	return ft
}

func (ft *flightTrace) begin(name string) {
	if ft == nil {
		return
	}
	ft.ord = ft.rec.BeginPhase(name)
	ft.phaseW = 0
}

func (ft *flightTrace) end(frontierSize int) {
	if ft == nil {
		return
	}
	now := flight.HeapBytes()
	ft.rec.Record(flight.Event{
		Kind:      flight.KindPhase,
		Phase:     ft.ord,
		Round:     ft.phaseW,
		Frontier:  int32(frontierSize),
		HeapDelta: now - ft.heap,
	})
	ft.heap = now
}

func (ft *flightTrace) onWave() func(pop int, examined int64) {
	if ft == nil {
		return nil
	}
	return ft.waveFn
}
