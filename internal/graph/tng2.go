package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// TNG2 is the mmap-oriented on-disk CSR format: where TNG1 optimizes for
// size (delta-coded varints that must be decoded edge by edge), TNG2
// stores the raw CSR arrays so a reader can map the file and use the
// offset/neighbor sections in place — load time is O(1) plus the
// checksum pass, and the page cache shares one copy of a graph across
// every process measuring it.
//
// Layout (all integers little-endian):
//
//	 0   magic "TNG2"
//	 4   format version (u32) = 1
//	 8   n, node count (u64)
//	16   m, undirected edge count (u64); the arc count is 2m
//	24   offsets section start (u64) = 64
//	32   offsets section length in bytes (u64) = (n+1)·8
//	40   adjacency section start (u64) = 64 + (n+1)·8
//	48   adjacency section length in bytes (u64) = 2m·4
//	56   reserved (u64) = 0
//	64   offsets section: (n+1) × int64 — CSR row offsets into adjacency
//	 …   adjacency section: 2m × int32 — sorted neighbor lists
//	end-8  crc32 (IEEE, u32) over every preceding byte
//	end-4  trailer magic "2GNT"
//
// The header is 64 bytes so the offsets section is 8-aligned in the
// page-aligned mapping and the adjacency section (which starts a
// multiple of 8 later) is 4-aligned; both can therefore be aliased as
// []int64 / []NodeID without copying. Readers verify the checksum and
// the full CSR invariants (monotone offsets; sorted, in-range, loop-free
// neighbor lists) before handing out a graph, so a truncated or
// corrupted file is an ErrBadFormat, never a panic later.
const (
	tng2HeaderSize = 64
	tng2FooterSize = 8
	tng2Version    = 1
	tng2MinSize    = tng2HeaderSize + 8 + tng2FooterSize // empty graph: one offsets entry
)

var (
	tng2Magic   = [4]byte{'T', 'N', 'G', '2'}
	tng2Trailer = [4]byte{'2', 'G', 'N', 'T'}
)

// hostLittleEndian reports whether the CPU stores integers little-endian,
// in which case the TNG2 sections can be aliased in place; big-endian
// hosts fall back to an explicit decode-copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// TNG2Size returns the size in bytes of the TNG2 image of a graph with
// n nodes and m edges: the header, (n+1) offsets of 8 bytes, 2m
// neighbors of 4 bytes, and the footer.
func TNG2Size(n int, m int64) int64 {
	return tng2HeaderSize + int64(n+1)*8 + 2*m*4 + tng2FooterSize
}

// tng2Writer streams one TNG2 image to w in section order: the header
// (written by newTNG2Writer), the n+1 offsets, the 2m neighbors, and
// the footer (written by close, which checks both counts). Values are
// encoded into a 64 KiB chunk that goes through the running CRC and on
// to w in one Write, not one per value. The first write error sticks in
// err and is returned by close.
type tng2Writer struct {
	cw                 crcWriter
	chunk              []byte
	offsets, neighbors int64 // still to come
	err                error
}

// tng2ChunkSize is the size of tng2Writer's encoding buffer.
const tng2ChunkSize = 64 << 10

func newTNG2Writer(w io.Writer, n int, m int64) *tng2Writer {
	le := binary.LittleEndian
	h := append(make([]byte, 0, tng2ChunkSize), tng2Magic[:]...)
	h = le.AppendUint32(h, tng2Version)
	// n, m, the two sections' starts and lengths, and the reserved word.
	offLen := uint64(n+1) * 8
	for _, field := range []uint64{uint64(n), uint64(m), tng2HeaderSize, offLen, tng2HeaderSize + offLen, uint64(2*m) * 4, 0} {
		h = le.AppendUint64(h, field)
	}
	return &tng2Writer{cw: crcWriter{w: w}, chunk: h, offsets: int64(n) + 1, neighbors: 2 * m}
}

// offset appends the next entry of the offsets section.
func (tw *tng2Writer) offset(off int64) {
	if len(tw.chunk)+8 > cap(tw.chunk) {
		tw.flush()
	}
	tw.chunk = binary.LittleEndian.AppendUint64(tw.chunk, uint64(off))
	tw.offsets--
}

// neighbor appends the next entry of the adjacency section.
func (tw *tng2Writer) neighbor(v NodeID) {
	if len(tw.chunk)+4 > cap(tw.chunk) {
		tw.flush()
	}
	tw.chunk = binary.LittleEndian.AppendUint32(tw.chunk, uint32(v))
	tw.neighbors--
}

func (tw *tng2Writer) flush() {
	if tw.err == nil {
		_, tw.err = tw.cw.Write(tw.chunk)
	}
	tw.chunk = tw.chunk[:0]
}

// close writes the last chunk and the footer.
func (tw *tng2Writer) close() error {
	tw.flush()
	if tw.err != nil {
		return tw.err
	}
	if tw.offsets != 0 || tw.neighbors != 0 {
		return fmt.Errorf("graph: tng2 sections off by %d offsets and %d neighbors", tw.offsets, tw.neighbors)
	}
	var footer [tng2FooterSize]byte
	binary.LittleEndian.PutUint32(footer[0:4], tw.cw.sum)
	copy(footer[4:8], tng2Trailer[:])
	_, err := tw.cw.w.Write(footer[:])
	return err
}

// WriteCSR writes v in the TNG2 format, streaming: one O(n) degree pass
// sizes the header, then offsets and neighbor lists go out through
// tng2Writer with O(1) extra memory — no edge sort, no dedup map, no
// materialized CSR copy. CSRWriter (which produces TNG2 from an
// unsorted edge stream) writes through the same tng2Writer, so the two
// agree byte for byte on the same graph.
func WriteCSR(w io.Writer, v View) error {
	n := v.NumNodes()
	m := v.NumEdges()
	var arcs int64
	for u := 0; u < n; u++ {
		arcs += int64(v.Degree(NodeID(u)))
	}
	if arcs != 2*m {
		return fmt.Errorf("graph: degree sum %d disagrees with 2m=%d", arcs, 2*m)
	}
	tw := newTNG2Writer(w, n, m)
	off := int64(0)
	tw.offset(0)
	for u := 0; u < n; u++ {
		off += int64(v.Degree(NodeID(u)))
		tw.offset(off)
	}
	var nbuf []NodeID
	for u := 0; u < n && tw.err == nil; u++ {
		nbuf = v.AppendNeighbors(NodeID(u), nbuf[:0])
		for _, x := range nbuf {
			tw.neighbor(x)
		}
	}
	if err := tw.close(); err != nil {
		return fmt.Errorf("write csr graph: %w", err)
	}
	return nil
}

// SaveCSR writes v to the named file in TNG2 format.
func SaveCSR(path string, v View) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save csr graph: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return WriteCSR(f, v)
}

// parseTNG2 validates the header, section geometry, checksum, and
// trailer of a complete TNG2 image and returns the node/edge counts and
// the raw section bytes. It does not validate the CSR invariants — the
// caller does that on the decoded (or aliased) arrays.
func parseTNG2(data []byte) (n int, m int64, offB, adjB []byte, err error) {
	le := binary.LittleEndian
	if len(data) < tng2MinSize {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d bytes is shorter than the minimum TNG2 file", ErrBadFormat, len(data))
	}
	if [4]byte(data[0:4]) != tng2Magic {
		return 0, 0, nil, nil, fmt.Errorf("%w: magic %q", ErrBadFormat, data[0:4])
	}
	if v := le.Uint32(data[4:8]); v != tng2Version {
		return 0, 0, nil, nil, fmt.Errorf("%w: unsupported TNG2 version %d", ErrBadFormat, v)
	}
	n64 := le.Uint64(data[8:16])
	m64 := le.Uint64(data[16:24])
	const maxNodes = 1 << 31
	if n64 > maxNodes {
		return 0, 0, nil, nil, fmt.Errorf("%w: node count %d too large", ErrBadFormat, n64)
	}
	if m64 > math.MaxInt64/4 {
		return 0, 0, nil, nil, fmt.Errorf("%w: edge count %d too large", ErrBadFormat, m64)
	}
	n = int(n64)
	m = int64(m64)
	offLen := uint64(n+1) * 8
	adjLen := uint64(2*m) * 4
	if le.Uint64(data[24:32]) != tng2HeaderSize ||
		le.Uint64(data[32:40]) != offLen ||
		le.Uint64(data[40:48]) != tng2HeaderSize+offLen ||
		le.Uint64(data[48:56]) != adjLen {
		return 0, 0, nil, nil, fmt.Errorf("%w: section table disagrees with n=%d m=%d", ErrBadFormat, n, m)
	}
	want := uint64(tng2HeaderSize) + offLen + adjLen + tng2FooterSize
	if uint64(len(data)) != want {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d bytes, want %d for n=%d m=%d", ErrBadFormat, len(data), want, n, m)
	}
	body := data[: len(data)-tng2FooterSize : len(data)-tng2FooterSize]
	if [4]byte(data[len(data)-4:]) != tng2Trailer {
		return 0, 0, nil, nil, fmt.Errorf("%w: bad trailer magic", ErrBadFormat)
	}
	sum := crc32.ChecksumIEEE(body)
	if got := le.Uint32(data[len(data)-8 : len(data)-4]); got != sum {
		return 0, 0, nil, nil, fmt.Errorf("%w: crc mismatch %08x != %08x", ErrBadFormat, got, sum)
	}
	offB = data[tng2HeaderSize : tng2HeaderSize+offLen]
	adjB = data[tng2HeaderSize+offLen : uint64(tng2HeaderSize)+offLen+adjLen]
	return n, m, offB, adjB, nil
}

// validateCSR checks the full CSR invariants of a decoded TNG2 image:
// monotone offsets starting at 0 and ending at 2m, and sorted, strictly
// ascending, in-range, loop-free neighbor lists. O(n+m); it is what lets
// every later consumer index the arrays without bounds anxiety.
func validateCSR(offsets []int64, adj []NodeID, n int, m int64) error {
	if offsets[0] != 0 {
		return fmt.Errorf("%w: offsets[0] = %d", ErrBadFormat, offsets[0])
	}
	if offsets[n] != int64(len(adj)) || offsets[n] != 2*m {
		return fmt.Errorf("%w: offsets end %d, want %d arcs", ErrBadFormat, offsets[n], 2*m)
	}
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		// hi is bounds-checked before slicing: monotonicity alone would
		// only catch an oversized intermediate offset after indexing past
		// the adjacency array. lo >= 0 follows inductively from
		// offsets[0] == 0 plus this per-row check.
		if hi < lo || hi > int64(len(adj)) {
			return fmt.Errorf("%w: offsets of node %d out of order or out of bounds", ErrBadFormat, u)
		}
		prev := NodeID(-1)
		for _, v := range adj[lo:hi] {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("%w: neighbor %d of node %d out of range", ErrBadFormat, v, u)
			}
			if int(v) == u {
				return fmt.Errorf("%w: self loop at node %d", ErrBadFormat, u)
			}
			if v <= prev {
				return fmt.Errorf("%w: neighbors of node %d not strictly ascending", ErrBadFormat, u)
			}
			prev = v
		}
	}
	return nil
}

// decodeTNG2 builds freshly allocated CSR arrays from the raw section
// bytes — the portable (any-endian) load path.
func decodeTNG2(n int, m int64, offB, adjB []byte) (*Graph, error) {
	le := binary.LittleEndian
	offsets := make([]int64, n+1)
	for i := range offsets {
		x := le.Uint64(offB[i*8:])
		if x > math.MaxInt64 {
			return nil, fmt.Errorf("%w: offset %d overflows", ErrBadFormat, x)
		}
		offsets[i] = int64(x)
	}
	adj := make([]NodeID, 2*m)
	for i := range adj {
		adj[i] = NodeID(int32(le.Uint32(adjB[i*4:])))
	}
	if err := validateCSR(offsets, adj, n, m); err != nil {
		return nil, err
	}
	return &Graph{offsets: offsets, adjacency: adj}, nil
}

// ReadTNG2 parses a TNG2 stream into an in-memory graph, verifying the
// checksum and the CSR invariants. It is the portable load path; use
// OpenMapped to alias the arrays straight out of the page cache instead.
func ReadTNG2(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read csr graph: %w", err)
	}
	n, m, offB, adjB, err := parseTNG2(data)
	if err != nil {
		return nil, err
	}
	return decodeTNG2(n, m, offB, adjB)
}

// Mapped is a read-only graph view backed by a memory-mapped TNG2 file:
// on little-endian unix hosts its CSR slices alias the mapping directly
// (zero-copy; the kernel pages neighbor lists in on demand and one page
// cache copy serves every process), elsewhere it degrades to a verified
// copy-load. It implements View and CSRSource, so the kernels and the
// traversals (through Adj) run over the mapping without copying the
// arrays.
//
// Close unmaps the file; using the view (or any graph derived from it)
// after Close panics. Mapped views are safe for concurrent
// readers, like every immutable graph.
type Mapped struct {
	g    *Graph
	data []byte // non-nil only while an actual mapping is live
	path string
}

// OpenMapped maps the named TNG2 file and returns the aliasing view.
// The checksum and full CSR invariants are verified before the view is
// returned, so a truncated or corrupt file fails here with ErrBadFormat.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open mapped graph: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("open mapped graph %s: %w", path, err)
	}
	if st.Size() < tng2MinSize || st.Size() > math.MaxInt-1 {
		return nil, fmt.Errorf("open mapped graph %s: %w: %d bytes", path, ErrBadFormat, st.Size())
	}
	data, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// No mmap on this platform: verified copy-load.
		g, err := ReadTNG2(f)
		if err != nil {
			return nil, fmt.Errorf("open mapped graph %s: %w", path, err)
		}
		return &Mapped{g: g, path: path}, nil
	}
	n, m, offB, adjB, err := parseTNG2(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("open mapped graph %s: %w", path, err)
	}
	if !hostLittleEndian {
		g, err := decodeTNG2(n, m, offB, adjB)
		_ = munmapFile(data)
		if err != nil {
			return nil, fmt.Errorf("open mapped graph %s: %w", path, err)
		}
		return &Mapped{g: g, path: path}, nil
	}
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&offB[0])), n+1)
	var adj []NodeID
	if m > 0 {
		adj = unsafe.Slice((*NodeID)(unsafe.Pointer(&adjB[0])), 2*m)
	}
	if err := validateCSR(offsets, adj, n, m); err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("open mapped graph %s: %w", path, err)
	}
	return &Mapped{g: &Graph{offsets: offsets, adjacency: adj}, data: data, path: path}, nil
}

// Close releases the mapping. It is idempotent; any use of the view or
// of graphs derived from it after Close panics rather than reading
// unmapped memory.
func (mg *Mapped) Close() error {
	data := mg.data
	mg.data = nil
	mg.g = nil
	if data == nil {
		return nil
	}
	return munmapFile(data)
}

// Path returns the file the view was opened from — stable across the
// view's lifetime (unlike the graph data, it survives Close), so a
// registry holding mapped graphs can list and evict by it.
func (mg *Mapped) Path() string { return mg.path }

// CSR implements CSRSource: the backing graph aliases the mapping, so
// the batched kernels run directly over the file's pages.
func (mg *Mapped) CSR() *Graph { return mg.g }

// NumNodes implements View.
func (mg *Mapped) NumNodes() int { return mg.g.NumNodes() }

// NumEdges implements View.
func (mg *Mapped) NumEdges() int64 { return mg.g.NumEdges() }

// Valid implements View.
func (mg *Mapped) Valid(v NodeID) bool { return mg.g.Valid(v) }

// Degree implements View.
func (mg *Mapped) Degree(v NodeID) int { return mg.g.Degree(v) }

// AppendNeighbors implements View.
func (mg *Mapped) AppendNeighbors(v NodeID, buf []NodeID) []NodeID {
	return mg.g.AppendNeighbors(v, buf)
}

// VisitEdges implements View.
func (mg *Mapped) VisitEdges(visit func(Edge) bool) { mg.g.VisitEdges(visit) }

var (
	_ View      = (*Mapped)(nil)
	_ CSRSource = (*Mapped)(nil)
)
