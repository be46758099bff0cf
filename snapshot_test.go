package nearclique_test

// Snapshot-path determinism: a graph that travels through
// WriteSnapshot → OpenSnapshot must produce the exact Solve transcript of
// the in-memory original on every engine, and one mapped snapshot must be
// shareable by concurrent SolveBatch runs (exercised under -race in CI).

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nearclique"
	"nearclique/internal/gen"
)

func writeSnapshotFile(t *testing.T, g *nearclique.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ncsr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nearclique.WriteSnapshot(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotRoundTripSolveTranscript pins the acceptance criterion:
// generate → WriteSnapshot → OpenSnapshot → Solve yields results deeply
// equal to solving the original in-memory graph — labels, candidates,
// sample sizes, and full simulator metrics — on the sequential reference
// and both CONGEST simulator engines.
func TestSnapshotRoundTripSolveTranscript(t *testing.T) {
	res, err := nearclique.Generate(nearclique.GenSpec{
		Family: "planted", N: 3000, Size: 300, EpsIn: 0.01, P: 0.004, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	path := writeSnapshotFile(t, g)
	snap, err := nearclique.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	for _, engine := range []nearclique.Engine{nearclique.EngineSequential, nearclique.EngineSharded} {
		s, err := nearclique.New(
			nearclique.WithEngine(engine),
			nearclique.WithEpsilon(0.25),
			nearclique.WithSeed(5),
			nearclique.WithVersions(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("%v: in-memory solve: %v", engine, err)
		}
		got, err := s.Solve(context.Background(), snap.Graph())
		if err != nil {
			t.Fatalf("%v: snapshot solve: %v", engine, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: snapshot-backed solve transcript differs from in-memory", engine)
		}
	}
}

// TestSnapshotBytesStableAcrossRoundTrip: snapshots are canonical — the
// bytes of a re-serialized mapped graph match the original file exactly.
func TestSnapshotBytesStableAcrossRoundTrip(t *testing.T) {
	inst := gen.SparsePlantedNearClique(5000, 200, 0.02, 8, 3)
	path := writeSnapshotFile(t, inst.Graph)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := nearclique.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var buf bytes.Buffer
	if err := nearclique.WriteSnapshot(&buf, snap.Graph()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, buf.Bytes()) {
		t.Fatal("snapshot round trip is not byte-identical")
	}
}

// TestSolveBatchSharesOneMappedSnapshot: many concurrent runs over the
// same Snapshot-backed graph (the serving pattern: one mapped file, many
// requests) must all equal the solo in-memory result. The lazily built
// sidecars (CSR Rev) are shared too, so this doubles as the race test for
// concurrent first access — CI runs it under -race.
func TestSolveBatchSharesOneMappedSnapshot(t *testing.T) {
	inst := gen.SparsePlantedNearClique(4000, 250, 0.01, 6, 9)
	path := writeSnapshotFile(t, inst.Graph)
	snap, err := nearclique.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	s, err := nearclique.New(
		nearclique.WithEngine(nearclique.EngineSharded),
		nearclique.WithSeed(2),
		nearclique.WithBatchWorkers(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Solve(context.Background(), inst.Graph)
	if err != nil {
		t.Fatal(err)
	}

	graphs := make([]*nearclique.Graph, 8)
	for i := range graphs {
		graphs[i] = snap.Graph() // the one mapped arena, shared by all runs
	}
	results, err := s.SolveBatch(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range results {
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch item %d over the shared snapshot differs from the solo solve", i)
		}
	}
}

// TestReadGraphSniffsSnapshot: the stream-based entry point accepts
// snapshot bytes too (stdin pipelines: gengraph -format snap | nearclique).
func TestReadGraphSniffsSnapshot(t *testing.T) {
	g := gen.SparseErdosRenyi(500, 0.01, 4)
	var buf bytes.Buffer
	if err := nearclique.WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := nearclique.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("shape changed: (%d,%d) vs (%d,%d)", got.N(), got.M(), g.N(), g.M())
	}
}

// TestLoadGraphDispatch: LoadGraph maps .ncsr files and parses edge lists
// through one entry point.
func TestLoadGraphDispatch(t *testing.T) {
	g := gen.SparseErdosRenyi(400, 0.02, 6)
	dir := t.TempDir()

	snapPath := filepath.Join(dir, "g.ncsr")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nearclique.WriteSnapshot(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	textPath := filepath.Join(dir, "g.edges")
	f, err = os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nearclique.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{snapPath, textPath} {
		got, closeGraph, err := nearclique.LoadGraph(path)
		if err != nil {
			t.Fatalf("LoadGraph(%s): %v", path, err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("%s: shape changed", path)
		}
		if err := closeGraph(); err != nil {
			t.Fatal(err)
		}
	}
}
