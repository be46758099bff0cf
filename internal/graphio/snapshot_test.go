package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nearclique/internal/expt"
	"nearclique/internal/gen"
	"nearclique/internal/graph"
)

func snapBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		x, y := a.Neighbors(v), b.Neighbors(v)
		if len(x) != len(y) {
			t.Fatalf("degree of %d changed", v)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("adjacency of %d changed", v)
			}
		}
	}
}

func TestSnapshotRoundTripStream(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Empty(0),
		gen.Empty(9),
		gen.Complete(12),
		gen.SparseErdosRenyi(500, 0.02, 7),
		gen.ErdosRenyi(80, 0.3, 1), // dense-built: sidecar present, arena identical
	} {
		data := snapBytes(t, g)
		g2, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadSnapshot(n=%d): %v", g.N(), err)
		}
		sameGraph(t, g, g2)
	}
}

// TestSnapshotBytesCanonical: the same graph serializes to the same bytes,
// regardless of which builder produced it — the format mirrors the arena,
// and the arena is canonical.
func TestSnapshotBytesCanonical(t *testing.T) {
	edges := [][2]int{{0, 3}, {1, 2}, {2, 3}, {0, 1}, {1, 3}}
	a := graph.FromEdges(5, edges)    // dense path
	b := graph.FromEdgeList(5, edges) // sparse path
	ba, bb := snapBytes(t, a), snapBytes(t, b)
	if !bytes.Equal(ba, bb) {
		t.Fatal("dense- and sparse-built snapshots differ")
	}
	// Re-serializing a decoded snapshot is byte-identical.
	g2, err := ReadSnapshot(bytes.NewReader(ba))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, g2), ba) {
		t.Fatal("snapshot re-serialization not byte-identical")
	}
}

func TestOpenSnapshotMmap(t *testing.T) {
	g := gen.SparseErdosRenyi(2000, 0.005, 3)
	path := filepath.Join(t.TempDir(), "g.ncsr")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, snap.Graph())
	// The snapshot graph is fully usable: CSR, HasEdge, components.
	if snap.Graph().CSR().NumEdges() != 2*g.M() {
		t.Fatal("CSR over mapped arena wrong")
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestLoadDispatch(t *testing.T) {
	g := gen.SparseErdosRenyi(300, 0.03, 5)
	dir := t.TempDir()

	snapPath := filepath.Join(dir, "g.ncsr")
	if err := WriteSnapshotFile(snapPath, g); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(dir, "g.txt")
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{snapPath, textPath} {
		got, closeFn, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		sameGraph(t, g, got)
		if err := closeFn(); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
	}
	if _, _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

// TestSnapshotOpenBeatsTextParse: on the quick E13 planted shape (n=5000,
// a 300-node planted set, average degree 10) opening the `.ncsr` snapshot
// makes O(1) allocations (at most 1000) and is faster than parsing the
// same graph as an edge list. Each path is timed best of three.
func TestSnapshotOpenBeatsTextParse(t *testing.T) {
	if testing.Short() {
		t.Skip("load timing in -short mode")
	}
	g := expt.ScaleInstance(expt.ScalePoint{N: 5_000, Size: 300, AvgDeg: 10}, 1).Graph
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "g.ncsr")
	if err := WriteSnapshotFile(snapPath, g); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(dir, "g.edges")
	if err := os.WriteFile(textPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// load returns the best-of-three wall time and that run's allocations.
	load := func(path string) (time.Duration, uint64) {
		var best time.Duration
		var allocs uint64
		for i := 0; i < 3; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			got, closeFn, err := Load(path)
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Fatalf("Load(%s): %v", path, err)
			}
			if got.N() != g.N() || got.M() != g.M() {
				t.Fatalf("%s: loaded (%d,%d), want (%d,%d)", path, got.N(), got.M(), g.N(), g.M())
			}
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			if i == 0 || wall < best {
				best, allocs = wall, ms1.Mallocs-ms0.Mallocs
			}
		}
		return best, allocs
	}
	textWall, _ := load(textPath)
	snapWall, snapAllocs := load(snapPath)
	if snapAllocs > 1000 {
		t.Errorf("snapshot open allocated %d times; the path is supposed to be O(1) allocations", snapAllocs)
	}
	if snapWall >= textWall {
		t.Errorf("snapshot open (%v) not faster than the text parse (%v)", snapWall, textWall)
	}
	t.Logf("text %v, snapshot %v (%.1fx), snapshot allocs %d",
		textWall, snapWall, float64(textWall)/float64(snapWall), snapAllocs)
}

// TestSnapshotDecodeRejectsCorruption drives the decoder through every
// rejection path with surgical corruptions of a valid file; all must
// error (never panic), and size-cap violations must wrap ErrTooLarge.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	g := gen.SparseErdosRenyi(64, 0.1, 2)
	valid := snapBytes(t, g)

	put64 := func(data []byte, off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:40],
		"bad magic":         append([]byte("XXXX"), valid[4:]...),
		"bad version":       append(append([]byte(nil), valid[:4]...), append([]byte{9, 0}, valid[6:]...)...),
		"bad endian mark":   append(append([]byte(nil), valid[:6]...), append([]byte{0, 0}, valid[8:]...)...),
		"truncated payload": valid[:len(valid)-3],
		"trailing garbage":  append(append([]byte(nil), valid...), 0xFF),
		"flipped target":    flipByte(valid, len(valid)-1),
		"flipped offset":    flipByte(valid, snapHeaderSize+8),
		"flipped checksum":  flipByte(valid, 56),
		"offsets in header": put64(valid, 24, 8),
		"sections overlap":  put64(valid, 40, 64),
		"misaligned off":    put64(valid, 24, 65),
		"huge node count":   put64(valid, 8, 1<<40),
		"huge edge count":   put64(valid, 16, 1<<40),
		// Hostile offsets that must not drive slicing or allocation: an
		// offsetsOff whose section arithmetic wraps uint64, and a targets
		// section placed astronomically past the file end.
		"wrapping offsetsOff": put64(valid, 24, 0xFFFFFFFFFFFFFFF8),
		"huge targetsOff":     put64(valid, 40, 1<<62),
		"section gap":         put64(put64(valid, 24, 72), 40, binary.LittleEndian.Uint64(valid[40:])+8),
	}
	for name, data := range cases {
		g, err := decodeSnapshot(data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupted snapshot (n=%d)", name, g.N())
			continue
		}
		if name == "huge node count" || name == "huge edge count" {
			if !errors.Is(err, ErrTooLarge) {
				t.Errorf("%s: want ErrTooLarge, got %v", name, err)
			}
		} else if !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: want ErrSnapshot, got %v", name, err)
		}
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x5A
	return out
}

// TestSnapshotAsymmetricArenaRejected: a checksum-valid file whose arena
// violates graph invariants (here: a directed edge without its reverse)
// must still be rejected — structural validation runs after the checksum.
func TestSnapshotAsymmetricArenaRejected(t *testing.T) {
	data := buildRawSnapshot([]int64{0, 1, 1}, []int32{1})
	if _, err := decodeSnapshot(data); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("asymmetric arena: want ErrSnapshot, got %v", err)
	}
	// Self-loop.
	data = buildRawSnapshot([]int64{0, 1, 2}, []int32{0, 0})
	if _, err := decodeSnapshot(data); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("self-loop arena: want ErrSnapshot, got %v", err)
	}
}

// buildRawSnapshot assembles a wire-format snapshot around an arbitrary
// (possibly invalid) arena, with a correct checksum — for testing the
// structural validation layer in isolation.
func buildRawSnapshot(offsets []int64, targets []int32) []byte {
	var buf bytes.Buffer
	_ = writeRawSnapshot(&buf, offsets, targets)
	return buf.Bytes()
}

// TestReadSnapshotHostileHeaderNoAllocation: a 64-byte stream whose
// header declares absurd section offsets must error at header validation,
// before ReadSnapshot sizes its payload buffer — never a makeslice panic
// or a multi-gigabyte allocation.
func TestReadSnapshotHostileHeaderNoAllocation(t *testing.T) {
	valid := snapBytes(t, gen.Empty(1))
	hdr := append([]byte(nil), valid[:snapHeaderSize]...)
	binary.LittleEndian.PutUint64(hdr[40:48], 1<<62) // targetsOff far beyond any real file
	if _, err := ReadSnapshot(bytes.NewReader(hdr)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("hostile header: want ErrSnapshot, got %v", err)
	}
	binary.LittleEndian.PutUint64(hdr[24:32], 0xFFFFFFFFFFFFFFF8) // wrapping offsetsOff
	if _, err := ReadSnapshot(bytes.NewReader(hdr)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("wrapping header: want ErrSnapshot, got %v", err)
	}
}

// TestSnapshotNodeCapRespectsOverride: the MaxNodes cap applies to
// snapshots exactly as it does to edge lists.
func TestSnapshotNodeCapRespectsOverride(t *testing.T) {
	defer func(old int) { MaxNodes = old }(MaxNodes)
	MaxNodes = 32
	data := snapBytes(t, gen.Empty(100))
	if _, err := decodeSnapshot(data); !errors.Is(err, ErrTooLarge) {
		t.Fatal("snapshot beyond MaxNodes accepted")
	}
	MaxNodes = 100
	if _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("snapshot within raised cap rejected: %v", err)
	}
}

// TestSnapHeaderOverflowIndependentOfCaps: the header's structural
// guards must hold even when the mutable MaxNodes/MaxEdges caps are
// raised to the integer ceiling — or set negative, which turns the
// uint64 cap comparison into "anything goes". Without the int32 bounds
// a node count near 2^61 wraps 8·(n+1) to 0, so a hostile header
// declaring offsetsLen=0 would sail through the section arithmetic.
func TestSnapHeaderOverflowIndependentOfCaps(t *testing.T) {
	defer func(n, m int) { MaxNodes, MaxEdges = n, m }(MaxNodes, MaxEdges)

	hostile := func(n, numTargets, offsetsLen, targetsOff, targetsLen uint64) []byte {
		hdr := append([]byte(nil), snapBytes(t, gen.Empty(1))[:snapHeaderSize]...)
		binary.LittleEndian.PutUint64(hdr[8:16], n)
		binary.LittleEndian.PutUint64(hdr[16:24], numTargets)
		binary.LittleEndian.PutUint64(hdr[32:40], offsetsLen)
		binary.LittleEndian.PutUint64(hdr[40:48], targetsOff)
		binary.LittleEndian.PutUint64(hdr[48:56], targetsLen)
		return hdr
	}
	cases := map[string][]byte{
		// 8·(n+1) wraps uint64 to exactly 0; every downstream field is
		// chosen to be consistent with the wrapped value.
		"wrapping offsetsLen": hostile(1<<61-1, 0, 0, snapHeaderSize, 0),
		// n+1 itself wraps: 8·(2^64−1+1) = 0 too.
		"n is MaxUint64": hostile(^uint64(0), 0, 0, snapHeaderSize, 0),
		// Node count representable but past int32 — no target could ever
		// reference the tail nodes.
		"n past int32": hostile(1<<31, 0, 8*(1<<31+1), snapHeaderSize+8*(1<<31+1), 0),
		// 4·2m wraps to 0 only far past int32; reject at the edge-index bound.
		"numTargets past int32": hostile(0, 1<<32, 8, snapHeaderSize+8, 4<<32),
	}
	// A negative cap disables the ErrTooLarge comparison outright (its
	// uint64 image is 2^64−1), so the structural ErrSnapshot guard is the
	// only line of defense; at math.MaxInt either sentinel may fire first.
	rejected := func(err error) bool {
		return errors.Is(err, ErrSnapshot) || errors.Is(err, ErrTooLarge)
	}
	for _, caps := range []int{-1, math.MaxInt} {
		MaxNodes, MaxEdges = caps, caps
		for name, hdr := range cases {
			if _, err := parseSnapHeader(hdr); !rejected(err) {
				t.Errorf("caps=%d %s: want ErrSnapshot/ErrTooLarge, got %v", caps, name, err)
			}
			if _, err := ReadSnapshot(bytes.NewReader(hdr)); !rejected(err) {
				t.Errorf("caps=%d %s via ReadSnapshot: want ErrSnapshot/ErrTooLarge, got %v", caps, name, err)
			}
		}
	}
}
