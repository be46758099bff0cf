package nearclique

import (
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

// This file is the unified graph-construction surface: one Build entry
// point and one Generate entry point that auto-select the dense-bitset or
// CSR-sparse internal representation from n and m (see DESIGN.md §7 for
// the thresholds). They are the only graph constructors the package
// exports; the representation-specific builders and generators stay
// internal.

// GraphBuilder accumulates edges and selects the graph representation at
// Build time from the observed node and edge counts: dense adjacency
// bitsets (O(1) edge probes) for small or genuinely dense graphs, the
// O(n+m) sparse layout for large ones. Duplicate edges and self-loops are
// ignored.
type GraphBuilder = graph.AutoBuilder

// NewGraphBuilder returns a GraphBuilder for a graph on n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewAutoBuilder(n) }

// Build constructs a graph on n nodes from an edge list, selecting the
// representation automatically.
func Build(n int, edges [][2]int) *Graph { return graph.FromEdgesAuto(n, edges) }

// GenSpec declares a graph family and its parameters for Generate: set
// Family plus the fields that family reads (see the field docs).
type GenSpec = gen.Spec

// GenResult is Generate's output: the graph plus the family's ground
// truth (planted members, exact planted ε, geometric positions).
type GenResult = gen.Generated

// Generate builds a graph family through the unified entry point,
// auto-selecting the dense or sparse generation path by n and the
// expected edge count. For randomized families the representation choice
// is part of the deterministic output contract (same GenSpec ⇒ same
// graph, always), so dense-path and sparse-path twins of the same
// distribution are different — equally valid — draws.
//
//	inst, err := nearclique.Generate(nearclique.GenSpec{
//	        Family: "planted", N: 100_000, Size: 3_000, EpsIn: 0.01,
//	        P: 0.0001, Seed: 7,
//	})
func Generate(spec GenSpec) (GenResult, error) { return gen.Generate(spec) }
