package graphio

// The .ncsr binary snapshot format: the graph's canonical CSR arena
// (offsets + targets, see graph.Arena) serialized verbatim, so opening a
// snapshot is O(validate) with zero per-node allocation — the mapped bytes
// ARE the in-memory representation. DESIGN.md §8 documents the byte-level
// layout, endianness and versioning rules, and the mmap fallback path.
//
// Layout (all multi-byte fields little-endian):
//
//	offset size  field
//	0      4     magic "NCSR"
//	4      2     format version (currently 1)
//	6      2     endianness marker 0xABCD (bytes CD AB on disk)
//	8      8     n — node count
//	16     8     2m — directed edge count (= len(targets))
//	24     8     offsetsOff — byte offset of the offsets section (64)
//	32     8     offsetsLen — byte length of the offsets section, 8·(n+1)
//	40     8     targetsOff — byte offset of the targets section
//	48     8     targetsLen — byte length of the targets section, 4·2m
//	56     8     CRC-32C (Castagnoli) over the offsets bytes then the
//	             targets bytes, zero-extended to 64 bits
//	64     ...   offsets section: n+1 × int64
//	...    ...   targets section: 2m × int32; the file ends here
//
// Sections must be aligned (offsets 8-byte, targets 4-byte), in order,
// non-overlapping, and must tile the file exactly; the decoder rejects
// anything else with an error, never a panic (fuzzed by FuzzSnapshot).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"nearclique/internal/graph"
)

const (
	snapMagic      = "NCSR"
	snapVersion    = 1
	snapEndianMark = 0xABCD
	snapHeaderSize = 64
)

// ErrSnapshot is wrapped by every snapshot decode failure that is not a
// size-cap violation (those wrap ErrTooLarge), so callers can distinguish
// a corrupt file from an oversized one via errors.Is.
var ErrSnapshot = errors.New("graphio: invalid snapshot")

// snapCRCTable is the Castagnoli polynomial: hardware-accelerated on
// amd64/arm64, so checksumming a 64 MB million-node snapshot costs
// single-digit milliseconds of the open path.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running machine stores integers
// little-endian. The fast zero-copy paths require it; big-endian hosts
// transparently fall back to decode-with-byte-swap (see DESIGN.md §8).
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// int64Bytes returns the little-endian byte image of xs: a zero-copy view
// on little-endian hosts, a converted copy elsewhere.
func int64Bytes(xs []int64) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
	}
	buf := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
	}
	return buf
}

// int32Bytes is int64Bytes for int32 slices.
func int32Bytes(xs []int32) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*4)
	}
	buf := make([]byte, len(xs)*4)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(x))
	}
	return buf
}

// bytesInt64 interprets little-endian bytes as int64s: zero-copy when the
// host is little-endian and the data is 8-byte aligned, copying otherwise.
func bytesInt64(data []byte) []int64 {
	count := len(data) / 8
	if count == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&data[0])), count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// bytesInt32 is bytesInt64 for int32 sections.
func bytesInt32(data []byte) []int32 {
	count := len(data) / 4
	if count == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&data[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

// WriteSnapshot serializes g in the .ncsr format. The output is canonical:
// the same graph always produces the same bytes, so snapshot files can be
// compared and cached by content.
func WriteSnapshot(w io.Writer, g *graph.Graph) error {
	offsets, targets := g.Arena()
	if offsets == nil {
		offsets = []int64{0} // the zero-value empty graph
	}
	return writeRawSnapshot(w, offsets, targets)
}

// writeRawSnapshot emits the wire format around an arbitrary arena; it is
// the writer half shared by WriteSnapshot and the decoder tests (which
// need checksum-valid files with structurally invalid arenas).
func writeRawSnapshot(w io.Writer, offsets []int64, targets []int32) error {
	offBytes := int64Bytes(offsets)
	tgtBytes := int32Bytes(targets)
	crc := crc32.Update(0, snapCRCTable, offBytes)
	crc = crc32.Update(crc, snapCRCTable, tgtBytes)

	var hdr [snapHeaderSize]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], snapEndianMark)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(offsets)-1))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(targets)))
	binary.LittleEndian.PutUint64(hdr[24:32], snapHeaderSize)
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(offBytes)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(snapHeaderSize+len(offBytes)))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(len(tgtBytes)))
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(crc))

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(offBytes); err != nil {
		return err
	}
	if _, err := bw.Write(tgtBytes); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSnapshotFile writes g as a .ncsr snapshot at path (atomically via a
// temp file in the same directory, so readers never observe a torn file).
func WriteSnapshotFile(path string, g *graph.Graph) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ncsr-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp creates 0600 and Rename preserves it; open the snapshot
	// up to the usual world-readable file mode so a service running as a
	// different user than the generator can map it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// snapHeader is the decoded fixed-size header.
type snapHeader struct {
	n          uint64
	numTargets uint64
	offsetsOff uint64
	offsetsLen uint64
	targetsOff uint64
	targetsLen uint64
	crc        uint64
}

// parseSnapHeader validates the fixed 64-byte header against the declared
// caps and internal consistency rules (section arithmetic is checked
// without overflow: every quantity is range-limited before use).
func parseSnapHeader(hdr []byte) (snapHeader, error) {
	var h snapHeader
	if len(hdr) < snapHeaderSize {
		return h, fmt.Errorf("%w: %d bytes, need at least the %d-byte header", ErrSnapshot, len(hdr), snapHeaderSize)
	}
	if string(hdr[0:4]) != snapMagic {
		return h, fmt.Errorf("%w: bad magic %q", ErrSnapshot, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != snapVersion {
		return h, fmt.Errorf("%w: unsupported version %d (this build reads version %d)", ErrSnapshot, v, snapVersion)
	}
	if e := binary.LittleEndian.Uint16(hdr[6:8]); e != snapEndianMark {
		return h, fmt.Errorf("%w: endianness marker %#04x, want %#04x (byte-swapped writer?)", ErrSnapshot, e, snapEndianMark)
	}
	h.n = binary.LittleEndian.Uint64(hdr[8:16])
	h.numTargets = binary.LittleEndian.Uint64(hdr[16:24])
	h.offsetsOff = binary.LittleEndian.Uint64(hdr[24:32])
	h.offsetsLen = binary.LittleEndian.Uint64(hdr[32:40])
	h.targetsOff = binary.LittleEndian.Uint64(hdr[40:48])
	h.targetsLen = binary.LittleEndian.Uint64(hdr[48:56])
	h.crc = binary.LittleEndian.Uint64(hdr[56:64])

	if h.n > uint64(MaxNodes) {
		return h, fmt.Errorf("%w: snapshot declares %d nodes, limit %d", ErrTooLarge, h.n, MaxNodes)
	}
	if h.numTargets > 2*uint64(MaxEdges) {
		return h, fmt.Errorf("%w: snapshot declares %d directed edges, limit %d", ErrTooLarge, h.numTargets, 2*MaxEdges)
	}
	// Hard structural bounds, independent of the mutable MaxNodes/MaxEdges
	// caps (comparisons above, arithmetic below): targets are int32 node
	// indices, so a node count past int32 could never be referenced, and
	// bounding n and 2m to int32 keeps every section-length product and
	// offset sum below 2^36 — none of the arithmetic after this point can
	// wrap regardless of what a caller set the caps to. (A caller who sets
	// a cap negative turns its uint64 conversion into 2^64−1, silently
	// disabling that cap check; these guards hold anyway.)
	if h.n > math.MaxInt32 {
		return h, fmt.Errorf("%w: snapshot declares %d nodes, past int32 node indices", ErrSnapshot, h.n)
	}
	if h.numTargets > math.MaxInt32 {
		return h, fmt.Errorf("%w: %d directed edges exceed int32 edge indices", ErrSnapshot, h.numTargets)
	}
	if h.offsetsLen != 8*(h.n+1) {
		return h, fmt.Errorf("%w: offsets section %d bytes, want 8·(n+1) = %d", ErrSnapshot, h.offsetsLen, 8*(h.n+1))
	}
	if h.targetsLen != 4*h.numTargets {
		return h, fmt.Errorf("%w: targets section %d bytes, want 4·2m = %d", ErrSnapshot, h.targetsLen, 4*h.numTargets)
	}
	// Sections are pinned to their canonical positions: immediately after
	// the header, in order, gap-free. Pinning (rather than merely bounding)
	// rejects overlapping or drifting sections, keeps accepted files
	// canonical, and — because offsetsLen/targetsLen were cap-bounded
	// above — leaves no unchecked arithmetic for a hostile header to
	// overflow. Alignment follows for free: 64 and 64+8(n+1) are 8-byte
	// aligned.
	if h.offsetsOff != snapHeaderSize {
		return h, fmt.Errorf("%w: offsets section at %d, want %d", ErrSnapshot, h.offsetsOff, snapHeaderSize)
	}
	if h.targetsOff != h.offsetsOff+h.offsetsLen {
		return h, fmt.Errorf("%w: targets section at %d, want %d (sections must tile the file)",
			ErrSnapshot, h.targetsOff, h.offsetsOff+h.offsetsLen)
	}
	return h, nil
}

// decodeSnapshot validates data as a .ncsr snapshot and wraps its arena as
// a graph — zero-copy on little-endian hosts when the sections are
// naturally aligned. It returns an error (never panics) on truncated or
// corrupted headers, checksum mismatches, overlapping or misaligned
// sections, and structurally invalid arenas.
func decodeSnapshot(data []byte) (*graph.Graph, error) {
	h, err := parseSnapHeader(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) != h.targetsOff+h.targetsLen {
		return nil, fmt.Errorf("%w: file is %d bytes, sections end at %d", ErrSnapshot, len(data), h.targetsOff+h.targetsLen)
	}
	offBytes := data[h.offsetsOff : h.offsetsOff+h.offsetsLen]
	tgtBytes := data[h.targetsOff : h.targetsOff+h.targetsLen]
	crc := crc32.Update(0, snapCRCTable, offBytes)
	crc = crc32.Update(crc, snapCRCTable, tgtBytes)
	if uint64(crc) != h.crc {
		return nil, fmt.Errorf("%w: checksum mismatch (file %#016x, computed %#016x)", ErrSnapshot, h.crc, crc)
	}
	g, err := graph.FromArena(bytesInt64(offBytes), bytesInt32(tgtBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return g, nil
}

// ReadSnapshot decodes a .ncsr snapshot from a stream. Unlike
// OpenSnapshot it must buffer the payload in memory, but it reads exactly
// the size the (validated) header declares, so a hostile stream cannot
// trigger an unbounded allocation. Callers that have a file path should
// prefer OpenSnapshot, which maps the file instead of copying it.
func ReadSnapshot(r io.Reader) (*graph.Graph, error) {
	var hdr [snapHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSnapshot, err)
	}
	h, err := parseSnapHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	// The header guards bound total below 2^36, which overflows int on
	// 32-bit hosts where make would panic instead of erroring.
	total := h.targetsOff + h.targetsLen
	if total > uint64(math.MaxInt) {
		return nil, fmt.Errorf("%w: snapshot spans %d bytes, past this platform's address space", ErrSnapshot, total)
	}
	data := make([]byte, total)
	copy(data, hdr[:])
	if _, err := io.ReadFull(r, data[snapHeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrSnapshot, err)
	}
	return decodeSnapshot(data)
}

// Snapshot is an open .ncsr file: a ready-to-solve graph whose arena
// aliases the mapped file bytes. One Snapshot may back any number of
// concurrent Solve/SolveBatch runs — the graph is immutable and its lazy
// sidecars (CSR Rev, dense rows) are built under sync.Once — but the
// graph must not be used after Close.
type Snapshot struct {
	g     *graph.Graph
	unmap func() error

	once sync.Once
	err  error
}

// Graph returns the snapshot's graph. Shared; valid until Close.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Close releases the mapping (a no-op for heap-backed fallbacks).
// Idempotent; the graph must not be touched afterwards.
func (s *Snapshot) Close() error {
	s.once.Do(func() {
		if s.unmap != nil {
			s.err = s.unmap()
		}
	})
	return s.err
}

// OpenSnapshot maps the .ncsr file at path and wraps it as a ready-to-
// solve graph. The open cost is header validation plus one sequential
// checksum/invariant pass over the mapped bytes — no parsing, no per-node
// allocation — so a million-node graph opens in milliseconds where the
// text edge-list parse takes seconds (TestSnapshotOpenBeatsTextParse
// pins the allocation bound and the ordering). On platforms
// without mmap (or when the mapping fails) the file is read into memory
// instead; the decode path is identical.
func OpenSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if data, unmap, err := mmapFile(f, st.Size()); err == nil {
		g, derr := decodeSnapshot(data)
		if derr != nil {
			unmap()
			return nil, fmt.Errorf("%s: %w", path, derr)
		}
		return &Snapshot{g: g, unmap: unmap}, nil
	}
	// Fallback: no mmap on this platform, an empty file, or a mapping
	// failure — buffer the file and decode identically.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, derr := decodeSnapshot(data)
	if derr != nil {
		return nil, fmt.Errorf("%s: %w", path, derr)
	}
	return &Snapshot{g: g}, nil
}
