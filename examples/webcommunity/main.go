// Web-community detection: the paper's introduction motivates near-clique
// discovery with "tightly knit communities" that distort link-based
// ranking (PageRank/SALSA). This example embeds such a community in a
// preferential-attachment web graph, finds it with DistNearClique, and
// compares against the centralized densest-subgraph greedy peel.
//
//	go run ./examples/webcommunity
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

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
		n         = 800
		commSize  = 120
		commEps   = 0.05 // the community is a 0.05-near clique
		eps       = 0.4  // detection parameter: 0.05 ≤ ε³ needs ε ≥ 0.37
		seed      = 11
		minReport = 20
	)
	web, err := nearclique.Generate(nearclique.GenSpec{Family: "web", N: n, M: 3, Seed: seed})
	if err != nil {
		return err
	}
	g, community := nearclique.EmbedCommunity(web.Graph, commSize, commEps, seed+1)
	fmt.Fprintf(w, "web graph: %d nodes, %d edges; embedded a %.2f-near clique community of %d pages\n",
		g.N(), g.M(), commEps, len(community))

	// EngineAuto = the sequential reference: same outputs as the
	// simulator, the right default when no metrics are needed.
	solver, err := nearclique.New(
		nearclique.WithEpsilon(eps),
		nearclique.WithExpectedSample(7),
		nearclique.WithSeed(seed),
		nearclique.WithVersions(4), // boost: web graphs are noisy
		nearclique.WithMinSize(minReport),
	)
	if err != nil {
		return err
	}
	ctx := context.Background()
	res, err := solver.Solve(ctx, g)
	if err != nil {
		return err
	}

	inComm := map[int]bool{}
	for _, v := range community {
		inComm[v] = true
	}
	fmt.Fprintf(w, "\nDistNearClique reported %d communit(ies):\n", len(res.Candidates))
	for i, c := range res.Candidates {
		hit := 0
		for _, v := range c.Members {
			if inComm[v] {
				hit++
			}
		}
		fmt.Fprintf(w, "  #%d: %d pages, density %.3f, %d/%d from the planted community\n",
			i+1, len(c.Members), c.Density, hit, len(c.Members))
	}

	// Centralized comparison: Charikar's greedy peel maximizes average
	// degree |E(U)|/|U| — it tends to return a larger, sparser set.
	peel, avgDeg := nearclique.GreedyPeel(g)
	hit := 0
	for _, v := range peel {
		if inComm[v] {
			hit++
		}
	}
	fmt.Fprintf(w, "\ngreedy peel (centralized, avg-degree objective): %d pages, avg degree %.2f, near-clique density %.3f, %d from community\n",
		len(peel), avgDeg, nearclique.Density(g, peel), hit)
	fmt.Fprintln(w, "\nnote: peel optimizes a different objective — it finds the densest core by average degree,")
	fmt.Fprintln(w, "while DistNearClique targets Definition-1 density (fraction of present pairs).")

	// How tight is the community really? Search bisects ε for the
	// smallest value at which a community of ≥ 12% of the graph is still
	// reported — the data-driven way to pick the detection parameter.
	minEps, _, err := solver.Search(ctx, g, 0.12)
	switch {
	case errors.Is(err, nearclique.ErrNotFound):
		fmt.Fprintln(w, "\nε-search: no community of that size at any probed ε")
	case err != nil:
		return err
	default:
		fmt.Fprintf(w, "\nε-search: smallest detection parameter for a ≥12%% community: ε ≈ %.3f\n", minEps)
	}
	return nil
}
