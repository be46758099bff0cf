package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"nearclique"
)

// libFixture calls the public nearclique API on a memory-mapped snapshot.
type libFixture struct {
	g       *nearclique.Graph
	planted []bool
	sh      shape
}

func setupLib(b *bench, w *workload, tr *trace, root int, sh shape) (*fixture, error) {
	sh = b.shape(sh)
	inst, path, err := b.writeSnapshot(w, sh, tr, root)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	snap, err := nearclique.OpenSnapshot(path)
	tr.add("graphio.open_snapshot", root, t, time.Now())
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	lf := &libFixture{g: snap.Graph(), planted: plantedSet(sh.n, inst.Planted), sh: sh}
	generated := inst.Graph
	return &fixture{
		n: lf.g.N(), m: lf.g.M(), exec: lf.exec,
		graphDigest: func() (string, error) {
			want := generated.Digest()
			generated = nil // the snapshot serves from here on
			if got := lf.g.Digest(); got != want {
				return "", fmt.Errorf("snapshot digest %s, generated %s", got, want)
			}
			return want, nil
		},
		close: func() error { return errors.Join(snap.Close(), os.Remove(path)) },
	}, nil
}

func (f *libFixture) exec(spec opSpec, due time.Time, tr *trace) outcome {
	opts := []nearclique.Option{nearclique.WithSeed(spec.Seed)}
	if spec.Kind == "search" {
		opts = append(opts, nearclique.WithExpectedSample(f.sh.searchSample()),
			nearclique.WithSearchBounds(searchMin, searchMax))
	} else {
		opts = append(opts, nearclique.WithExpectedSample(f.sh.solveSample()),
			nearclique.WithMinSize(f.sh.minSize()), nearclique.WithEpsilon(epsilon))
	}
	var rec *nearclique.FlightRecorder
	if tr != nil {
		// The default ring holds 1024 events; a search at n=1e5 emits
		// about 15, so no phase event is overwritten.
		rec = nearclique.NewFlightRecorder(0)
		opts = append(opts, nearclique.WithFlightRecorder(rec))
	}
	out := outcome{tr: tr}
	s, err := nearclique.New(opts...)
	if err != nil {
		out.err = fmt.Errorf("failed: %w", err)
		return out
	}
	var res *nearclique.Result
	eps := epsilon
	call := "nearclique.Solve"
	start := time.Now()
	if spec.Kind == "search" {
		call = "nearclique.Search"
		eps, res, err = s.Search(context.Background(), f.g, float64(f.sh.minSize())/float64(f.sh.n))
	} else {
		res, err = s.Solve(context.Background(), f.g)
	}
	end := time.Now()
	out.latency = end.Sub(due)
	if tr != nil {
		addPhaseSpans(tr, tr.add(call, tr.add("op", -1, due, end), start, end), rec, start)
	}
	switch {
	case errors.Is(err, nearclique.ErrNotFound):
		// No probed ε had a large enough near-clique: a valid answer.
		out.q = quality{near: true}
		return out
	case err != nil:
		out.err = fmt.Errorf("failed: %w", err)
		return out
	}
	// Keep only what the check reads: Labels alone is 8 bytes a node.
	cands, sampleSizes, maxComp := res.Candidates, res.SampleSizes, res.MaxComponent
	out.verify = func() (quality, error) {
		if spec.Kind == "search" && (eps < searchMin || eps > searchMax) {
			return quality{}, fmt.Errorf("check: search found ε %v outside [%v, %v]", eps, searchMin, searchMax)
		}
		if spec.Kind == "search" && (len(cands) == 0 || len(cands[0].Members) < f.sh.minSize()) {
			return quality{}, fmt.Errorf("check: search at ε %v returned no candidate of %d nodes", eps, f.sh.minSize())
		}
		sets := make([][]int, len(cands))
		for i, c := range cands {
			sets[i] = c.Members
		}
		if err := checkNear(f.g, eps, sets); err != nil {
			return quality{}, err
		}
		q := quality{near: true, found: len(cands) > 0, maxComp: maxComp}
		for _, s := range sampleSizes {
			q.sample += s
		}
		if q.found {
			q.recovered = recovered(f.planted, f.sh.size, cands[0].Members)
		}
		return q, nil
	}
	return out
}

// addPhaseSpans turns the flight recorder's phase events into spans
// under the engine call: a phase event is recorded when its phase ends,
// so each phase runs from the previous one's end, or the call's start.
func addPhaseSpans(tr *trace, parent int, rec *nearclique.FlightRecorder, start time.Time) {
	prev := start
	for _, ev := range rec.Snapshot() {
		if ev.Kind != nearclique.FlightPhase {
			continue
		}
		end := rec.Epoch().Add(time.Duration(ev.WallNS))
		tr.add("engine."+rec.PhaseName(ev.Phase), parent, prev, end)
		prev = end
	}
}
