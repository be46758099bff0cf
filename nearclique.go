// Package nearclique finds large near-cliques in graphs, implementing
// Brakerski & Patt-Shamir, "Distributed Discovery of Large Near-Cliques"
// (PODC 2009): a randomized CONGEST-model algorithm that, given a graph
// containing an ε³-near clique of size δn, finds — in O(1) rounds for
// constant parameters, with O(log n)-bit messages and constant success
// probability — a collection of disjoint near-cliques, at least one of
// which is an O(ε/δ)-near clique of size (1−O(ε))·δn.
//
// A set D is an ε-near clique if all but an ε fraction of the ordered
// pairs of D carry an edge (Definition 1 in the paper).
//
// # The Solver
//
// The package is organized around a reusable, goroutine-safe Solver
// constructed with functional options and driven with context-aware
// methods:
//
//	s, err := nearclique.New(
//	        nearclique.WithEngine(nearclique.EngineSharded),
//	        nearclique.WithEpsilon(0.25),
//	        nearclique.WithExpectedSample(6),
//	        nearclique.WithSeed(1),
//	        nearclique.WithVersions(3),
//	)
//	if err != nil { ... }
//	res, err := s.Solve(ctx, g)         // one graph
//	best := res.Best()                  // largest reported near-clique, or nil
//
//	batch, err := s.SolveBatch(ctx, gs) // concurrent serving over many graphs
//	eps, res, err := s.Search(ctx, g, 0.3) // smallest ε with a ≥0.3n near-clique
//
// Engines are pluggable (WithEngine): the sequential reference replay
// (fastest; the EngineAuto default), the sharded flat-buffer CONGEST
// simulator (full round/frame/bit metrics at million-node scale), and
// the asynchronous executor with Awerbuch's α-synchronizer. All engines
// produce bit-identical outputs on the same seed — the determinism suite
// pins this — so the choice is purely cost vs. metrics.
//
// Every method takes a context.Context: cancellation and deadlines are
// observed at simulator round boundaries, surface as wrapped
// context.Canceled / context.DeadlineExceeded, and leave valid partial
// Metrics in the returned Result. WithProgress installs a per-step
// callback for serving-side liveness.
//
// WithRefine adds a deterministic local-search refinement post-pass
// (DESIGN.md §10): each committed candidate is polished by
// neighborhood-seeded growth, peel, and swap moves without ever
// decreasing its density; the base transcript stays bit-identical and
// the refined output extends the determinism contract (same seed ⇒ same
// refined sets on every engine). Results land in Result.Refined and the
// Metrics Refined* fields.
//
// Graph construction is unified behind Build, NewGraphBuilder, and
// Generate, which auto-select the dense-bitset or CSR-sparse internal
// representation from the node and edge counts (DESIGN.md §7); ReadGraph
// and WriteGraph handle the plain-text edge-list interchange format.
//
// Quickstart:
//
//	inst, _ := nearclique.Generate(nearclique.GenSpec{
//	        Family: "planted", N: 500, Size: 150, EpsIn: 0.01, P: 0.05, Seed: 1,
//	})
//	s, _ := nearclique.New(nearclique.WithEpsilon(0.25), nearclique.WithSeed(1))
//	res, err := s.Solve(context.Background(), inst.Graph)
//	if err != nil { ... }
//	best := res.Best() // largest reported near-clique, or nil
//
// See DESIGN.md for the architecture; go run ./cmd/experiments
// reproduces every claim in the paper.
package nearclique

import (
	"io"

	"nearclique/internal/baseline"
	"nearclique/internal/bitset"
	"nearclique/internal/congest"
	"nearclique/internal/core"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
	"nearclique/internal/graphio"
)

// Graph is an immutable simple undirected graph on nodes 0..N()-1. Its
// Digest method returns a stable content digest (the `.ncsr` snapshot
// checksum over the canonical CSR arena), the identity the serving
// layer's result cache and the report schema key results by.
type Graph = graph.Graph

// ReadGraph parses a graph from any supported interchange format,
// detected from the stream's leading bytes: a plain-text edge list (see
// cmd/gengraph), a gzip-compressed edge list, or a `.ncsr` binary
// snapshot. Inputs beyond the graphio size caps fail with an error
// wrapping ErrInputTooLarge. When a file path (rather than a stream) is
// available, prefer LoadGraph, which memory-maps snapshots instead of
// buffering them.
func ReadGraph(r io.Reader) (*Graph, error) { return graphio.ReadAny(r) }

// WriteGraph emits a graph in the plain-text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graphio.Write(w, g) }

// WriteSnapshot serializes g in the versioned `.ncsr` zero-copy binary
// snapshot format: the graph's canonical CSR arena plus a checksummed
// header, so OpenSnapshot can map the file and solve over it directly.
// The output is canonical — the same graph always yields the same bytes.
// See DESIGN.md §8 for the byte-level layout.
func WriteSnapshot(w io.Writer, g *Graph) error { return graphio.WriteSnapshot(w, g) }

// Snapshot is an open `.ncsr` snapshot: a ready-to-solve Graph whose
// adjacency arena aliases the memory-mapped file. One Snapshot may back
// any number of concurrent Solve/SolveBatch runs; the graph must not be
// used after Close.
type Snapshot = graphio.Snapshot

// OpenSnapshot maps the `.ncsr` file at path and wraps it as a
// ready-to-solve Graph in milliseconds, with no text parsing and no
// per-node allocation. The cost is one sequential checksum + invariant
// validation pass over the mapped bytes. Platforms without mmap fall back
// to a buffered read with identical semantics.
func OpenSnapshot(path string) (*Snapshot, error) { return graphio.OpenSnapshot(path) }

// LoadGraph opens the graph file at path, auto-detecting the format:
// `.ncsr` snapshots are memory-mapped (O(ms) for million-node graphs),
// plain or gzip-compressed edge lists are parsed. The returned close
// function releases any mapping and must be called once the graph is no
// longer in use (it is a no-op for parsed graphs).
func LoadGraph(path string) (*Graph, func() error, error) { return graphio.Load(path) }

// ErrBadSnapshot is wrapped by every snapshot decode failure — truncated
// or corrupt headers, checksum mismatches, structurally invalid arenas —
// as opposed to size-cap violations, which wrap ErrInputTooLarge.
var ErrBadSnapshot = graphio.ErrSnapshot

// Result is the output of a run: the committed near-cliques, from which
// Label reads any node's output, sample sizes, and simulator metrics.
type Result = core.Result

// Candidate is one reported near-clique.
type Candidate = core.Candidate

// Metrics describes simulator costs: rounds, frames, bits, and the largest
// single message.
type Metrics = congest.Metrics

// NoLabel is the ⊥ output value: the node is in no reported near-clique.
const NoLabel = core.NoLabel

// ErrComponentTooLarge is returned (wrapped, errors.Is-matchable) when a
// sampled component exceeds the component cap; lower the sampling
// probability.
var ErrComponentTooLarge = core.ErrComponentTooLarge

// ErrRoundLimit is returned (wrapped) when the configured round bound is
// exceeded (the paper's deterministic running-time wrapper).
var ErrRoundLimit = core.ErrRoundLimit

// ErrInputTooLarge is wrapped by ReadGraph when an input exceeds the
// graphio node-count cap (an allocation-storm guard, not a parse error).
var ErrInputTooLarge = graphio.ErrTooLarge

// Density returns the Definition-1 density of a node set: the fraction of
// ordered pairs inside the set that carry an edge.
func Density(g *Graph, nodes []int) float64 { return g.DensityOf(nodes) }

// IsNearClique reports whether the node set is an ε-near clique.
func IsNearClique(g *Graph, nodes []int, eps float64) bool {
	return g.IsNearClique(bitset.FromIndices(g.N(), nodes), eps)
}

// GreedyPeel runs Charikar's greedy densest-subgraph 2-approximation — a
// centralized comparator. It returns the chosen set and its average degree
// |E(U)|/|U| (note: a different objective than near-clique density).
func GreedyPeel(g *Graph) ([]int, float64) { return g.GreedyPeel() }

// ErrNotFound is returned by the ε-search when no probed ε yields a
// near-clique of the requested size. Cancellation never surfaces as
// ErrNotFound — it arrives as a wrapped context error.
var ErrNotFound = core.ErrNotFound

// --- Baselines (Section 3 of the paper) --------------------------------

// ShinglesOptions configures the shingles baseline.
type ShinglesOptions = baseline.ShinglesOptions

// ShinglesResult is the shingles baseline output.
type ShinglesResult = baseline.ShinglesResult

// Shingles runs the Section-3 shingles baseline (fast, small messages, but
// provably fails on the Claim-1 family; see experiment E4, go run
// ./cmd/experiments -run E4).
func Shingles(g *Graph, opts ShinglesOptions) (*ShinglesResult, error) {
	return baseline.Shingles(g, opts)
}

// NNOptions configures the neighbors' neighbors baseline.
type NNOptions = baseline.NNOptions

// NNResult is the neighbors' neighbors baseline output.
type NNResult = baseline.NNResult

// NeighborsNeighbors runs the Section-3 LOCAL-model baseline (correct but
// with Θ(Δ log n)-bit messages and local max-clique computations).
func NeighborsNeighbors(g *Graph, opts NNOptions) (*NNResult, error) {
	return baseline.NeighborsNeighbors(g, opts)
}

// MISOptions configures Luby's maximal-independent-set baseline.
type MISOptions = baseline.MISOptions

// MISResult is the Luby baseline output.
type MISResult = baseline.MISResult

// LubyMIS runs Luby's distributed MIS algorithm in CONGEST (the paper's
// related-work pointer [16, 2]).
func LubyMIS(g *Graph, opts MISOptions) (*MISResult, error) {
	return baseline.LubyMIS(g, opts)
}

// MaximalCliqueViaComplementMIS runs Luby's MIS on the complement graph,
// yielding a maximal — not maximum — clique of g (the paper's remark on
// why MIS does not solve dense-subgraph discovery; see experiment E12).
func MaximalCliqueViaComplementMIS(g *Graph, opts MISOptions) ([]int, Metrics, error) {
	return baseline.MaximalCliqueViaComplementMIS(g, opts)
}

// EmbedCommunity overlays a near-clique community on an existing graph and
// returns the new graph plus the community members.
func EmbedCommunity(g *Graph, size int, epsIn float64, seed int64) (*Graph, []int) {
	return gen.EmbedCommunity(g, size, epsIn, seed)
}
