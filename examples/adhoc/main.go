// Ad-hoc radio clustering: the paper cites dense-subgraph detection for
// clustering and conflict management in radio ad-hoc networks. Nodes are
// radios in the unit square, connected within transmission radius; a
// near-clique is a set of mutually interfering radios — a natural cluster
// for scheduling or backbone formation.
//
//	go run ./examples/adhoc
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"nearclique"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "example:", err)
		os.Exit(1)
	}
}

// run holds the example logic; main wires it to stdout and the smoke
// tests drive it directly.
func run(w io.Writer) error {
	const (
		radios = 300
		radius = 0.12
		seed   = 23
	)
	geo, err := nearclique.Generate(nearclique.GenSpec{
		Family: "geometric", N: radios, Radius: radius, Seed: seed,
	})
	if err != nil {
		return err
	}
	g, pos := geo.Graph, geo.Positions

	// Add a dense hotspot: 40 radios packed into one corner cell, all
	// within range of each other. The unified builder picks the graph
	// representation from the final (n, m).
	b := nearclique.NewGraphBuilder(radios)
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	hotspot := make([]int, 0, 40)
	for v := 0; v < 40; v++ {
		hotspot = append(hotspot, v)
		pos[v] = [2]float64{0.05 + 0.02*math.Cos(float64(v)), 0.05 + 0.02*math.Sin(float64(v))}
		for w := 0; w < v; w++ {
			b.AddEdge(v, w)
		}
	}
	g = b.Build()
	fmt.Fprintf(w, "ad-hoc network: %d radios, %d in-range pairs; hotspot of %d mutually interfering radios\n",
		g.N(), g.M(), len(hotspot))

	// Field deployments need liveness and a budget: a progress callback
	// reports every completed phase, and the context deadline aborts
	// cleanly (with partial metrics) if the radios fall behind.
	steps := 0
	solver, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithEpsilon(0.3),
		nearclique.WithExpectedSample(6),
		nearclique.WithSeed(seed),
		nearclique.WithVersions(3),
		nearclique.WithMinSize(10),
		nearclique.WithProgress(func(nearclique.Progress) { steps++ }),
	)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := solver.Solve(ctx, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CONGEST cost: %d rounds over %d phases, max message %d bits\n",
		res.Metrics.Rounds, steps, res.Metrics.MaxFrameBits)

	if len(res.Candidates) == 0 {
		fmt.Fprintln(w, "no interference cluster found — retry with another seed")
		return nil
	}
	for i, c := range res.Candidates {
		cx, cy := 0.0, 0.0
		for _, v := range c.Members {
			cx += pos[v][0]
			cy += pos[v][1]
		}
		k := float64(len(c.Members))
		fmt.Fprintf(w, "cluster #%d: %d radios at density %.3f, centroid (%.2f, %.2f)\n",
			i+1, len(c.Members), c.Density, cx/k, cy/k)
	}
	fmt.Fprintln(w, "\nclusters this dense need coordinated scheduling: every pair conflicts.")
	return nil
}
