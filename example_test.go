package nearclique_test

// Godoc examples for the Solver API. These run under `go test`, so the
// documented quickstart is exercised — and its output pinned — on every
// CI run.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nearclique"
)

// Example builds a planted instance, configures a reusable Solver on the
// sharded CONGEST simulator, and solves one graph.
func Example() {
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 500, Size: 150, EpsIn: 0.01, P: 0.05, Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithEpsilon(0.25),
		nearclique.WithExpectedSample(6),
		nearclique.WithSeed(1),
		nearclique.WithVersions(3),
	)
	if err != nil {
		panic(err)
	}
	res, err := s.Solve(context.Background(), inst.Graph)
	if err != nil {
		panic(err)
	}
	best := res.Best()
	fmt.Printf("found a near-clique of %d nodes (density %.3f) in %d rounds\n",
		len(best.Members), best.Density, res.Metrics.Rounds)
	// Output: found a near-clique of 149 nodes (density 0.990) in 62 rounds
}

// Example_solveBatch serves several immutable graphs concurrently with
// one Solver; results are index-aligned and identical to solo solves.
func Example_solveBatch() {
	var graphs []*nearclique.Graph
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := nearclique.Generate(nearclique.GenSpec{
			Family: "planted", N: 300, Size: 100, EpsIn: 0.01, P: 0.04, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		graphs = append(graphs, inst.Graph)
	}

	s, err := nearclique.New(
		nearclique.WithEpsilon(0.25),
		nearclique.WithSeed(7),
		nearclique.WithVersions(3),
		nearclique.WithBatchWorkers(8),
	)
	if err != nil {
		panic(err)
	}
	results, err := s.SolveBatch(context.Background(), graphs)
	if err != nil {
		panic(err)
	}
	for i, res := range results {
		fmt.Printf("graph %d: best near-clique has %d nodes\n", i, len(res.Best().Members))
	}
	// Output:
	// graph 0: best near-clique has 99 nodes
	// graph 1: best near-clique has 99 nodes
	// graph 2: best near-clique has 98 nodes
}

// Example_cancellation shows the context contract: cancellation surfaces
// as a wrapped context.Canceled, never a bespoke error, and the returned
// result still carries the metrics accumulated before the interruption.
func Example_cancellation() {
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 400, Size: 120, EpsIn: 0.01, P: 0.04, Seed: 2,
	})
	if err != nil {
		panic(err)
	}
	s, err := nearclique.New(nearclique.WithEngine(nearclique.EngineSharded))
	if err != nil {
		panic(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: it stops at the first round boundary

	res, err := s.Solve(ctx, inst.Graph)
	fmt.Println("canceled:", errors.Is(err, context.Canceled))
	fmt.Println("partial result returned:", res != nil)

	// Deadlines work the same way.
	ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = s.Solve(ctx, inst.Graph)
	fmt.Println("deadline exceeded:", errors.Is(err, context.DeadlineExceeded))
	// Output:
	// canceled: true
	// partial result returned: true
	// deadline exceeded: true
}

// Example_progress installs a per-step progress callback — the serving
// hook for liveness, logging, and cancellation decisions.
func Example_progress() {
	inst, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 300, Size: 90, EpsIn: 0.01, P: 0.04, Seed: 3,
	})
	if err != nil {
		panic(err)
	}

	steps := 0
	var last nearclique.Progress
	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithVersions(2),
		nearclique.WithProgress(func(p nearclique.Progress) {
			steps++
			last = p
		}),
	)
	if err != nil {
		panic(err)
	}
	if _, err := s.Solve(context.Background(), inst.Graph); err != nil {
		panic(err)
	}
	fmt.Printf("observed %d of %d steps; final phase %q\n", steps, last.Total, last.Phase)
	// Output: observed 26 of 26 steps; final phase "commit"
}

// Example_snapshot round-trips a graph through the `.ncsr` zero-copy
// binary snapshot format: generate → WriteSnapshot → OpenSnapshot →
// Solve. Opening a snapshot memory-maps the file and wraps the raw bytes
// as a ready-to-solve graph — no text parsing, no per-node allocation —
// which is how long-running services load million-node graphs in
// milliseconds. Results are identical to solving the original: the
// snapshot is the same arena, byte for byte.
func Example_snapshot() {
	res, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 2000, Size: 200, EpsIn: 0.01, P: 0.005, Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "snapshot-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.ncsr")

	// Persist the graph once...
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := nearclique.WriteSnapshot(f, res.Graph); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}

	// ...and any number of later processes map it back instantly.
	snap, err := nearclique.OpenSnapshot(path)
	if err != nil {
		panic(err)
	}
	defer snap.Close()

	s, err := nearclique.New(nearclique.WithEpsilon(0.25), nearclique.WithSeed(1))
	if err != nil {
		panic(err)
	}
	solved, err := s.Solve(context.Background(), snap.Graph())
	if err != nil {
		panic(err)
	}
	best := solved.Best()
	fmt.Printf("mapped n=%d m=%d; found a near-clique of %d nodes\n",
		snap.Graph().N(), snap.Graph().M(), len(best.Members))
	// Output: mapped n=2000 m=29422; found a near-clique of 198 nodes
}
