package nearclique_test

// Flight-recorder integration tests: the recorder's contract is that it
// observes a run without perturbing it — transcripts are byte-identical
// with the recorder attached or detached, on every engine — and that its
// ring never blocks a solve, only drops and counts. Run with -race: the
// SolveBatch test shares one recorder across four workers plus a
// concurrent snapshot reader, which is exactly the serving daemon's
// access pattern.

import (
	"context"
	"fmt"
	"testing"

	"nearclique"
)

// TestFlightTranscriptsIdenticalAcrossEngines re-solves the golden
// fixtures on every engine with and without a recorder and compares the
// full canonical transcripts — the recorder-on run must be byte-identical
// to the recorder-off run.
func TestFlightTranscriptsIdenticalAcrossEngines(t *testing.T) {
	engines := []nearclique.Engine{
		nearclique.EngineSequential,
		nearclique.EngineSharded,
		nearclique.EngineAsync,
	}
	for _, fixture := range goldenFixtures(t) {
		g, closeGraph, err := nearclique.LoadGraph(fixture)
		if err != nil {
			t.Fatalf("load fixture %s: %v", fixture, err)
		}
		for _, engine := range engines {
			key := fmt.Sprintf("%s/%s", fixture, engine)
			opts := []nearclique.Option{
				nearclique.WithEngine(engine),
				nearclique.WithEpsilon(0.25),
				nearclique.WithExpectedSample(6),
				nearclique.WithSeed(3),
				nearclique.WithVersions(2),
			}
			plain, err := nearclique.New(opts...)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			off, err := plain.Solve(context.Background(), g)
			if err != nil {
				t.Fatalf("%s: recorder-off solve: %v", key, err)
			}
			// The recorder-on runs also sweep the parallelism axis (the
			// library-level analog of GOMAXPROCS 1 vs 4): wall-stamped
			// observability must stay byte-invisible in transcripts at
			// every worker count.
			for _, par := range []int{0, 1, 4} {
				rec := nearclique.NewFlightRecorder(256)
				tracedOpts := append(append([]nearclique.Option(nil), opts...),
					nearclique.WithFlightRecorder(rec))
				if par > 0 {
					tracedOpts = append(tracedOpts, nearclique.WithParallelism(par))
				}
				traced, err := nearclique.New(tracedOpts...)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				on, err := traced.Solve(context.Background(), g)
				if err != nil {
					t.Fatalf("%s/par=%d: recorder-on solve: %v", key, par, err)
				}
				if a, b := goldenTranscript(off, g.N()), goldenTranscript(on, g.N()); a != b {
					t.Errorf("%s/par=%d: transcript differs with recorder attached:\noff:\n%s\non:\n%s", key, par, a, b)
				}
				if rec.Offered() == 0 {
					t.Errorf("%s/par=%d: recorder attached but no events offered", key, par)
				}
			}
		}
		if err := closeGraph(); err != nil {
			t.Fatalf("close fixture %s: %v", fixture, err)
		}
	}
}

// TestFlightSolveBatchSharedRecorder runs a SolveBatch over four workers
// sharing one deliberately tiny recorder — so slot contention and
// overwrites actually happen — while a goroutine concurrently snapshots
// the ring. Pins that (a) batch results are identical to a recorder-off
// batch, (b) the exact-accounting invariant Offered == Dropped + Retained
// holds after arbitrary cross-worker interleaving.
func TestFlightSolveBatchSharedRecorder(t *testing.T) {
	var graphs []*nearclique.Graph
	for i := 0; i < 12; i++ {
		graphs = append(graphs, genER(t, 80+i, 0.15, int64(9+i)))
	}
	opts := []nearclique.Option{
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithEpsilon(0.3),
		nearclique.WithExpectedSample(5),
		nearclique.WithSeed(2),
		nearclique.WithBatchWorkers(4),
	}
	plain, err := nearclique.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	off, err := plain.SolveBatch(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}

	rec := nearclique.NewFlightRecorder(64) // tiny on purpose: force drops
	traced, err := nearclique.New(append(opts, nearclique.WithFlightRecorder(rec))...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	snapshots := make(chan int, 1)
	go func() {
		defer close(snapshots)
		polls := 0
		for {
			select {
			case <-done:
				snapshots <- polls
				return
			default:
				rec.Snapshot()
				polls++
			}
		}
	}()
	on, err := traced.SolveBatch(context.Background(), graphs)
	close(done)
	<-snapshots
	if err != nil {
		t.Fatal(err)
	}

	for i := range graphs {
		if a, b := goldenTranscript(off[i], graphs[i].N()), goldenTranscript(on[i], graphs[i].N()); a != b {
			t.Errorf("graph %d: batch transcript differs with shared recorder:\noff:\n%s\non:\n%s", i, a, b)
		}
	}
	offered, dropped, retained := rec.Offered(), rec.Dropped(), uint64(rec.Retained())
	if offered == 0 {
		t.Fatal("shared recorder saw no events")
	}
	if offered != dropped+retained {
		t.Fatalf("accounting broken: offered=%d != dropped=%d + retained=%d", offered, dropped, retained)
	}
	if dropped == 0 {
		t.Logf("note: no drops at capacity 64 over %d runs (invariant still checked)", len(graphs))
	}
}
