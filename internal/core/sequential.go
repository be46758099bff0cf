package core

import (
	"context"
	"fmt"
	"slices"

	"nearclique/internal/congest"
	"nearclique/internal/flight"
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
// interruption and no candidates, so every node's Label is ⊥.
//
// Components are discovered by one breadth-first search each over the
// CSR arena, so a version reads only its sampled nodes' rows. With
// Options.Flight set, the replay emits one flight.KindRound event per
// search depth of each version — the nodes at that depth, summed over the
// version's components, and the arena entries their rows hold — plus one
// KindPhase per boosting version and for the decision stage. The
// simulator Metrics stay zero: nothing is simulated.
//
// Per-run scratch (the ID walk's draws, the sample and traversal sets,
// the voter index) is drawn from a package-level pool, so repeated
// solves — in particular concurrent batch serving over shared immutable
// graphs — do not reallocate it. Pooling is invisible in the outputs:
// re-keyed streams are bit-identical to fresh ones.
func FindSequentialContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts, err := opts.validated(g.N())
	if err != nil {
		return nil, err
	}
	res := &Result{SampleSizes: make([]int, opts.Versions)}

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
	b := newBallot(comps, &scratch.kt, opts.MinSize)
	decideAndCommit(g, opts, comps, &b, res, &scratch.kt, scratch.mark)
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
// stream, exactly as the distributed nodes do; one pass in the phase of
// version 0, and of every congest.MaxFusedVersions-th version after it,
// draws the coins of that many versions), one breadth-first search per
// sampled component, each component's voters, and — for one that can
// announce — its ε-invariant K/T kernel tables. Every pass ORs its
// samples into the union, and the last starts the ID walk over the
// union beside the traversal (startRoots); a failed run skips the walk
// and commits no candidate, so every node reads ⊥. visit observes each
// component in transcript order — the solve finishes thresholds there,
// the search cache defers them to its probes. Shared so that a solve
// and a search probe provably traverse identically.
func collectComps(ctx context.Context, g *graph.Graph, opts Options, scratch *seqScratch, ft *flightTrace, res *Result, visit func(sc *seqComp)) (comps []*seqComp, err error) {
	n := g.N()
	par := workers(opts.Parallelism)
	scratch.sizeFor(n, opts.Versions)
	defer func() { // however the run ends, join the worker before the pool gets the scratch
		scratch.failed.Store(true) // a worker that has not begun the walk skips it
		scratch.worker.Wait()
		scratch.failed.Store(false)
		scratch.union.Clear() // all-zero already unless the run never walked
	}()

	p1 := opts.P / 2
	p2 := 0.0
	if p1 < 1 {
		p2 = (opts.P - p1) / (1 - p1)
	}
	scratch.coins.Reset(opts.Seed, p1, p2)

	for ver := 0; ver < opts.Versions; ver++ {
		if err := ctx.Err(); err != nil {
			return comps, fmt.Errorf("core: sequential run interrupted at version %d: %w", ver, err)
		}
		ft.begin(fmt.Sprintf("v%d/explore", ver))
		k := ver % congest.MaxFusedVersions
		if k == 0 {
			pass := scratch.samples[:min(opts.Versions-ver, congest.MaxFusedVersions)]
			scratch.coins.Draw(pass, parts(n, par))
			for _, set := range pass {
				scratch.union.Union(set)
			}
			if ver+congest.MaxFusedVersions >= opts.Versions {
				scratch.startRoots(n, opts.Seed, parts(n, par) > 1)
			}
		}
		scratch.inS = scratch.samples[k]
		res.SampleSizes[ver] = scratch.inS.Count()

		ci := 0
		err := scratch.eachComponent(g, ft, func(members []int) error {
			if ci%seqCtxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: sequential run interrupted at version %d: %w", ver, err)
				}
			}
			ci++
			if len(members) > res.MaxComponent {
				res.MaxComponent = len(members)
			}
			if len(members) > opts.MaxComponentSize {
				return fmt.Errorf("%w: %d > %d (lower the sampling probability)",
					ErrComponentTooLarge, len(members), opts.MaxComponentSize)
			}
			sc := newSeqComp(members, ver)
			sc.voters = scratch.gatherVoters(g, members)
			if sc.canAnnounce(opts.MinSize) {
				sc.buildKT(g, &scratch.kt, par, denseRows(g, sc.voters))
			}

			visit(sc)
			comps = append(comps, sc)
			return nil
		})
		if err != nil {
			ft.recordDepths()
			return comps, err
		}
		if ver == opts.Versions-1 {
			scratch.electRoots(comps)
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

// startRoots records the ID draws and walks the union unless the run
// has failed by then, leaving the IDs in s.nodes and s.ids: on a worker
// of its own if ahead, inline otherwise. It reads and writes nothing the
// traversal touches.
func (s *seqScratch) startRoots(n int, seed int64, ahead bool) {
	roots := func() {
		s.walk.Record(n, seed)
		if !s.failed.Load() {
			s.nodes, s.ids = s.walk.Walk(s.union)
		}
	}
	if !ahead {
		roots()
		return
	}
	s.worker.Add(1)
	go func() {
		defer s.worker.Done()
		roots()
	}()
}

// electRoots joins the roots worker and sets every component's root by
// looking its members' IDs up in the walked union, so the replay never
// builds the n-node permutation. Nothing reads a root before the
// decision stage.
func (s *seqScratch) electRoots(comps []*seqComp) {
	s.worker.Wait()
	for _, sc := range comps {
		sc.electRoot(s.nodes, s.ids)
	}
}

// eachComponent calls visit with every component of G[s.inS] — sorted
// ascending, in order of smallest member: graph.ComponentsOf's output —
// until visit returns an error, and returns that error. Walking the
// sample in ascending order, it starts one breadth-first search at each
// node no earlier search reached, so every sampled node's row is read
// once and a version costs O(|S| + Σ_{v∈S} deg v), never O(n). ft
// observes each search depth. The seen set holds the reached nodes the
// walk has not passed yet, so it is all-zero again on return, failed or
// not. members is s.queue, valid until visit returns.
func (s *seqScratch) eachComponent(g *graph.Graph, ft *flightTrace, visit func(members []int) error) error {
	var err error
	s.inS.ForEach(func(v int) {
		if s.seen.Contains(v) {
			s.seen.Remove(v)
			return
		}
		if err != nil {
			return
		}
		q := append(s.queue[:0], v)
		s.seen.Add(v)
		for head, depth := 0, 0; head < len(q); depth++ {
			first, examined := head, int64(0)
			for end := len(q); head < end; head++ {
				row := g.Neighbors(q[head])
				examined += int64(len(row))
				for _, w := range row {
					if u := int(w); s.inS.Contains(u) && !s.seen.Contains(u) {
						s.seen.Add(u)
						q = append(q, u)
					}
				}
			}
			ft.depth(depth, head-first, examined)
		}
		s.seen.Remove(v)
		slices.Sort(q)
		s.queue = q
		err = visit(q)
	})
	return err
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
// one KindRound per breadth-first search depth of each version (Frontier
// = the nodes at that depth, summed over the version's components, Frames
// = the arena entries their rows hold, Bytes = the 4-byte targets those
// loads moved), one KindPhase per boosting version plus the decision
// stage, with heap deltas sampled only at phase boundaries like every
// other engine. Summing over components keeps a version's events at its
// search depth, at most HardMaxComponentSize, however many components it
// samples. A nil *flightTrace is valid and free: every method no-ops, so
// the hot path carries no recorder branches of its own.
type flightTrace struct {
	rec    *flight.Recorder
	heap   int64
	ord    int32
	rounds int64        // cumulative depth index across the run
	depths []depthCount // the running phase's, by depth
}

// depthCount sums one search depth over a version's components.
type depthCount struct {
	nodes    int
	examined int64
}

func newFlightTrace(rec *flight.Recorder) *flightTrace {
	if rec == nil {
		return nil
	}
	return &flightTrace{rec: rec, heap: flight.HeapBytes(), ord: -1}
}

func (ft *flightTrace) begin(name string) {
	if ft == nil {
		return
	}
	ft.ord = ft.rec.BeginPhase(name)
	ft.depths = ft.depths[:0]
}

// depth adds depth d of one component's search: the nodes at it and the
// arena entries their rows hold.
func (ft *flightTrace) depth(d, nodes int, examined int64) {
	if ft == nil {
		return
	}
	if d == len(ft.depths) {
		ft.depths = append(ft.depths, depthCount{})
	}
	ft.depths[d].nodes += nodes
	ft.depths[d].examined += examined
}

// end records the running phase's depth events and then the phase
// itself.
func (ft *flightTrace) end(frontierSize int) {
	if ft == nil {
		return
	}
	ft.recordDepths()
	now := flight.HeapBytes()
	ft.rec.Record(flight.Event{
		Kind:      flight.KindPhase,
		Phase:     ft.ord,
		Round:     int64(len(ft.depths)),
		Frontier:  int32(frontierSize),
		HeapDelta: now - ft.heap,
	})
	ft.heap = now
}

// recordDepths records one KindRound per depth of the running phase: at
// its end, or where a failure ends the run inside it.
func (ft *flightTrace) recordDepths() {
	if ft == nil {
		return
	}
	for i, d := range ft.depths {
		ft.rec.Record(flight.Event{
			Kind:     flight.KindRound,
			Phase:    ft.ord,
			Round:    ft.rounds + int64(i) + 1,
			Frontier: int32(d.nodes),
			Frames:   d.examined,
			Bytes:    4 * d.examined,
		})
	}
	ft.rounds += int64(len(ft.depths))
}
