package core

import (
	"context"
	"fmt"

	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/graph"
)

// driver orchestrates the phases of Algorithm DistNearClique over a
// congest.Network. Nodes read the current phase and version through their
// back-pointer; the driver mutates them only between phases, when the
// network is quiescent.
type driver struct {
	g       *graph.Graph
	opts    Options
	wire    wire
	net     *congest.Network
	nodes   []*node
	phase   int
	version int
}

// Find runs the distributed algorithm on g and returns the labeled
// near-cliques. On ErrRoundLimit or ErrComponentTooLarge the returned
// Result still carries the metrics accumulated so far with all-⊥ labels
// (the paper's abort wrapper).
func Find(g *graph.Graph, opts Options) (*Result, error) {
	return FindContext(context.Background(), g, opts)
}

// FindContext is Find with cooperative cancellation: the context is
// observed at every simulator round boundary, so canceling mid-run on even
// a million-node instance returns within one round's worth of work. The
// error then wraps context.Canceled or context.DeadlineExceeded
// (errors.Is-visible), and the returned Result carries the metrics of
// every round completed before the interruption and no candidates, so
// every node's Label is ⊥, like the paper's abort wrapper.
func FindContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	res, _, err := find(ctx, g, opts)
	return res, err
}

// find is FindContext that also returns the driver, whose nodes hold the
// output registers that Result.Label reads back from the candidates.
func find(ctx context.Context, g *graph.Graph, opts Options) (*Result, *driver, error) {
	opts, err := opts.validated(g.N())
	if err != nil {
		return nil, nil, err
	}
	d := &driver{g: g, opts: opts}
	frameBits := congest.DefaultFrameBits(g.N())
	d.wire = newWire(g.N(), opts.Versions, frameBits)
	maxK := opts.MaxComponentSize
	if g.N() < maxK {
		maxK = g.N() // components can never exceed n
	}
	if need := d.wire.minFrameBits(maxK); need > frameBits {
		// Cannot happen with the default budget and admissible component
		// caps, but guard custom configurations explicitly.
		return nil, nil, fmt.Errorf("core: frame budget %d bits below the %d required", frameBits, need)
	}
	d.nodes = make([]*node, g.N())
	d.net = congest.NewNetwork(g, congest.Options{
		Seed:          opts.Seed,
		FrameBits:     frameBits,
		MaxRounds:     opts.MaxRounds,
		Parallelism:   opts.Parallelism,
		Async:         opts.Async,
		AsyncMaxDelay: opts.AsyncMaxDelay,
		Flight:        opts.Flight,
	}, func(ctx *congest.Context) congest.Proc {
		nd := newNode(d, ctx)
		d.nodes[ctx.Index()] = nd
		return nd
	})

	res := &Result{SampleSizes: make([]int, opts.Versions)}

	abort := func(err error) (*Result, *driver, error) {
		res.Metrics = d.net.Metrics()
		return res, d, err
	}

	explorationPhases := []int{
		phaseSample, phaseBFS, phaseClaim, phaseCompUp, phaseCompDown,
		phaseShare, phaseLeafClaim, phaseKBits, phaseKSum, phaseKDown,
		phaseTSum, phaseAnnounce,
	}
	step := 0
	total := opts.Versions*len(explorationPhases) + 2
	report := func(version int, phase string) {
		step++
		if opts.Progress == nil {
			return
		}
		m := d.net.Metrics()
		opts.Progress(Progress{
			Version: version, Phase: phase, Step: step, Total: total,
			Rounds: m.Rounds, Frames: m.Frames,
		})
	}
	for v := 0; v < opts.Versions; v++ {
		d.version = v
		for _, ph := range explorationPhases {
			d.phase = ph
			name := fmt.Sprintf("v%d/%s", v, phaseNames[ph])
			if err := d.net.RunPhaseContext(ctx, name); err != nil {
				return abort(err)
			}
			report(v, name)
			switch ph {
			case phaseSample:
				res.SampleSizes[v] = d.sampleSize(v)
			case phaseCompDown:
				if size := d.largestComponent(v); size > res.MaxComponent {
					res.MaxComponent = size
				}
				if res.MaxComponent > opts.MaxComponentSize {
					return abort(fmt.Errorf("%w: %d > %d (lower the sampling probability)",
						ErrComponentTooLarge, res.MaxComponent, opts.MaxComponentSize))
				}
			}
		}
	}
	for _, ph := range []int{phaseVote, phaseCommit} {
		d.phase = ph
		if err := d.net.RunPhaseContext(ctx, phaseNames[ph]); err != nil {
			return abort(err)
		}
		report(-1, phaseNames[ph])
	}

	res.Candidates = finalizeCandidates(g, d.collectCandidates(), bitset.New(g.N()), workers(opts.Parallelism))
	res.Metrics = d.net.Metrics()
	return res, d, nil
}

func (d *driver) sampleSize(v int) int {
	count := 0
	for _, nd := range d.nodes {
		if nd.vers[v] != nil && nd.vers[v].inS {
			count++
		}
	}
	return count
}

func (d *driver) largestComponent(v int) int {
	max := 0
	for _, nd := range d.nodes {
		vs := nd.vers[v]
		if vs != nil && vs.inS && vs.parent == noParent && len(vs.compMembers) > max {
			max = len(vs.compMembers)
		}
	}
	return max
}

// collectCandidates lists the committed roots' candidates and then
// groups the nodes into them by label register in one ascending pass,
// so every candidate's members come out sorted.
func (d *driver) collectCandidates() []Candidate {
	var cands []Candidate
	byLabel := map[int64]int{}
	for _, nd := range d.nodes {
		for v, vs := range nd.vers {
			if vs == nil || !vs.inS || vs.parent != noParent {
				continue
			}
			cv := vs.comps[vs.rootIdx]
			if cv == nil || !cv.committed {
				continue
			}
			label := cv.rootID*int64(d.opts.Versions) + int64(v)
			byLabel[label] = len(cands)
			cands = append(cands, Candidate{
				Label:   label,
				Version: v,
				SubsetX: decodeSubset(cv.members, cv.bStar),
			})
		}
	}
	for i, nd := range d.nodes {
		if ci, ok := byLabel[nd.label]; ok {
			cands[ci].Members = append(cands[ci].Members, i)
		}
	}
	return cands
}

// decodeSubset expands a subset index over the sorted member list.
func decodeSubset(members []int32, b int32) []int {
	var out []int
	for i := 0; i < len(members); i++ {
		if b&(1<<uint(i)) != 0 {
			out = append(out, int(members[i]))
		}
	}
	return out
}
