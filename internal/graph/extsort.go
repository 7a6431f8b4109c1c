package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
)

// CSRWriter builds a TNG2 file from an unordered edge stream in bounded
// memory — the generation path for graphs too large for Builder, which
// needs the whole edge multiset in RAM at once. Each accepted edge
// becomes two directed arcs packed into uint64s (src in the high 32
// bits, so integer order is (src, dst) order). Arcs accumulate in a
// buffer that starts at 64 Ki arcs and doubles up to BufferArcs; when
// it is full it is radix-sorted (sortArcs), deduplicated and spilled to
// a temporary run file. Finish sorts the residual buffer and streams
// the arcs in order twice (one pass counts degrees for the offsets
// section, one emits the adjacency section) through a TNG2 section
// writer. Without spills those passes walk the buffer itself; with them
// they k-way-merge the runs and the buffer.
//
// Peak memory is about 16·BufferArcs + 8n bytes regardless of the edge
// count: the arc buffer, a radix-sort scratch array the size of the
// filled buffer, and the offsets array; merging adds one chunk of
// spillChunk arcs (64 KiB) per spill run.
//
// CSRWriters are not safe for concurrent use. Always Close a writer —
// also after a successful Finish — to remove its spill files.
type CSRWriter struct {
	n        int
	buf      []uint64 // arcs since the last spill; grows up to limit
	scratch  []uint64 // sortArcs scatter target, reused across spills
	limit    int      // buffer capacity in arcs: BufferArcs rounded down to whole edges
	runs     []*os.File
	dir      string // lazily created spill directory, removed by Close
	tempDir  string
	spilled  int64
	finished bool
}

// CSRWriterConfig tunes a CSRWriter.
type CSRWriterConfig struct {
	// TempDir is where spill runs go; empty means the system temp
	// directory. The bounded-memory generation paths pass "out" so spill
	// traffic stays inside the repository's scratch area.
	TempDir string
	// BufferArcs caps the in-memory arc buffer (8 bytes per arc, plus as
	// much again for the sort's scratch array once the buffer is full).
	// The buffer grows by doubling from 64 Ki arcs, so a small graph
	// never allocates the cap. The default 1<<21 (16 MiB) keeps a
	// 10^7-node generation comfortably under typical container limits;
	// tests shrink it to force spills.
	BufferArcs int
}

// initialArcs is the arc buffer's first capacity; it doubles from there
// up to CSRWriterConfig.BufferArcs.
const initialArcs = 1 << 16

// CSRStats summarizes a finished CSRWriter.
type CSRStats struct {
	// Nodes and Edges are the written graph's n and m.
	Nodes int
	Edges int64
	// Runs is the number of spill files merged (0 for an in-memory build).
	Runs int
	// SpilledBytes is the total run-file volume written to disk.
	SpilledBytes int64
}

// NewCSRWriter returns a writer for a graph over the node set {0..n-1}.
func NewCSRWriter(n int, cfg CSRWriterConfig) (*CSRWriter, error) {
	if n < 0 || int64(n) > 1<<31 {
		return nil, fmt.Errorf("graph: csr writer node count %d out of range", n)
	}
	bufArcs := cfg.BufferArcs
	if bufArcs == 0 {
		bufArcs = 1 << 21
	}
	if bufArcs < 2 {
		return nil, fmt.Errorf("graph: csr writer buffer of %d arcs cannot hold one edge", bufArcs)
	}
	return &CSRWriter{n: n, limit: bufArcs &^ 1, tempDir: cfg.TempDir}, nil
}

// AddEdge records the undirected edge (u, v). Self loops are silently
// dropped and duplicates are merged, matching Builder semantics;
// out-of-range endpoints are errors.
func (w *CSRWriter) AddEdge(u, v NodeID) error {
	if w.finished {
		return fmt.Errorf("graph: csr writer already finished")
	}
	if u < 0 || v < 0 || int(u) >= w.n || int(v) >= w.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, w.n)
	}
	if u == v {
		return nil
	}
	if len(w.buf)+2 > cap(w.buf) {
		if err := w.grow(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, packArc(u, v), packArc(v, u))
	return nil
}

// packArc packs the arc u→v into a uint64 with u in the high half, so
// integer order is (src, dst) order.
func packArc(u, v NodeID) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// grow doubles the arc buffer, or spills it once it has reached the
// limit.
func (w *CSRWriter) grow() error {
	if cap(w.buf) >= w.limit {
		return w.spill()
	}
	nb := make([]uint64, len(w.buf), min(max(2*cap(w.buf), initialArcs), w.limit))
	copy(nb, w.buf)
	w.buf = nb
	return nil
}

// sortBuffer sorts and dedups the buffer. The sorted arcs may end up in
// the scratch array; then the two arrays swap roles, so both are kept
// for the next sort.
func (w *CSRWriter) sortBuffer() {
	if cap(w.scratch) < len(w.buf) {
		w.scratch = make([]uint64, len(w.buf))
	}
	w.buf, w.scratch = sortArcs(w.buf, w.scratch, w.n)
}

// spill sorts and dedups the buffer and appends it as a run file.
func (w *CSRWriter) spill() error {
	w.sortBuffer()
	if len(w.buf) == 0 {
		return nil
	}
	if w.dir == "" {
		dir, err := os.MkdirTemp(w.tempDir, "trustnet-extsort-")
		if err != nil {
			return fmt.Errorf("graph: csr writer spill dir: %w", err)
		}
		w.dir = dir
	}
	f, err := os.CreateTemp(w.dir, "run-*.arcs")
	if err != nil {
		return fmt.Errorf("graph: csr writer spill: %w", err)
	}
	enc := make([]byte, 0, spillChunk*8)
	for arcs := w.buf; len(arcs) > 0; {
		k := min(len(arcs), spillChunk)
		enc = enc[:0]
		for _, a := range arcs[:k] {
			enc = binary.LittleEndian.AppendUint64(enc, a)
		}
		if _, err := f.Write(enc); err != nil {
			f.Close()
			return fmt.Errorf("graph: csr writer spill: %w", err)
		}
		arcs = arcs[k:]
	}
	w.spilled += int64(len(w.buf)) * 8
	w.runs = append(w.runs, f)
	w.buf = w.buf[:0]
	return nil
}

// radixBits is the digit width of sortArcs: a 2048-entry count table
// per digit stays in L1, and arcs over 2^11 < n <= 2^22 nodes sort in
// four passes.
const radixBits = 11

// sortArcs sorts packed arcs ascending and removes duplicates. Both
// halves of every arc must be below n, so only their significant bits
// are sorted on: an LSD radix sort takes ceil(bits(n-1)/radixBits)
// digits of the dst half, then as many of the src half, scattering
// between a and tmp (len(tmp) >= len(a)). A digit that every arc shares
// costs no pass. It returns the sorted arcs, which live in a's or tmp's
// array, and the other array, so callers can keep both for reuse.
func sortArcs(a, tmp []uint64, n int) (sorted, spare []uint64) {
	if len(a) < 2 {
		return a, tmp
	}
	const mask = 1<<radixBits - 1
	digits := (bits.Len(uint(n-1)) + radixBits - 1) / radixBits
	src, dst := a, tmp[:len(a)]
	var count [1 << radixBits]int
	for p := 0; p < 2*digits; p++ {
		s := uint(p/digits*32 + p%digits*radixBits)
		clear(count[:])
		for _, x := range src {
			count[x>>s&mask]++
		}
		if count[src[0]>>s&mask] == len(src) {
			continue
		}
		sum := 0
		for i, k := range count {
			count[i] = sum
			sum += k
		}
		for _, x := range src {
			d := x >> s & mask
			dst[count[d]] = x
			count[d]++
		}
		src, dst = dst, src
	}
	return slices.Compact(src), dst
}

// spillChunk is the number of arcs a spill run is written and read in
// at a time: one Write or one io.ReadFull of 64 KiB.
const spillChunk = 1 << 13

// runReader streams one sorted spill run, or the in-memory buffer, from
// mem. A run's reader refills mem from its file one chunk at a time,
// decoding through raw, which every reader of a merge shares.
type runReader struct {
	f     io.Reader // nil for the buffer, and once the run is read
	raw   []byte
	chunk []uint64
	mem   []uint64
	cur   uint64
	ok    bool
}

func (r *runReader) advance() error {
	if len(r.mem) == 0 && r.f != nil {
		if err := r.refill(); err != nil {
			return err
		}
	}
	if len(r.mem) == 0 {
		r.ok = false
		return nil
	}
	r.cur, r.mem = r.mem[0], r.mem[1:]
	r.ok = true
	return nil
}

// refill reads the run's next chunk into mem. A short chunk is the
// run's last; an empty mem means the run is done.
func (r *runReader) refill() error {
	n, err := io.ReadFull(r.f, r.raw)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		r.f, err = nil, nil
	}
	if err == nil && n%8 != 0 {
		err = fmt.Errorf("run ends inside an arc")
	}
	if err != nil {
		return fmt.Errorf("graph: csr writer merge: %w", err)
	}
	r.mem = r.chunk[:n/8]
	for i := range r.mem {
		r.mem[i] = binary.LittleEndian.Uint64(r.raw[8*i:])
	}
	return nil
}

// mergeBatch is the number of merged arcs merge hands fn at a time.
const mergeBatch = 1 << 12

// merge streams the union of all runs and the sorted buffer in
// ascending arc order with global dedup, handing fn the distinct arcs
// in consecutive batches. Without runs the one batch is the buffer
// itself, so an in-memory build never touches the heap. It can be run
// repeatedly; each pass re-reads the spill runs from the start.
func (w *CSRWriter) merge(fn func(arcs []uint64) error) error {
	if len(w.runs) == 0 {
		return fn(w.buf)
	}
	readers := make([]*runReader, 0, len(w.runs)+1)
	raw := make([]byte, spillChunk*8)
	for _, f := range w.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("graph: csr writer merge: %w", err)
		}
		readers = append(readers, &runReader{f: f, raw: raw, chunk: make([]uint64, spillChunk)})
	}
	readers = append(readers, &runReader{mem: w.buf})
	// Binary min-heap of reader indices ordered by current arc.
	heap := make([]*runReader, 0, len(readers))
	less := func(a, b *runReader) bool { return a.cur < b.cur }
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(heap) && less(heap[l], heap[s]) {
				s = l
			}
			if r < len(heap) && less(heap[r], heap[s]) {
				s = r
			}
			if s == i {
				return
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
	}
	for _, r := range readers {
		if err := r.advance(); err != nil {
			return err
		}
		if r.ok {
			heap = append(heap, r)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	batch := make([]uint64, 0, mergeBatch)
	for len(heap) > 0 {
		r := heap[0]
		if arc := r.cur; len(batch) == 0 || arc != batch[len(batch)-1] {
			if len(batch) == cap(batch) {
				if err := fn(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
			batch = append(batch, arc)
		}
		if err := r.advance(); err != nil {
			return err
		}
		if !r.ok {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return fn(batch)
}

// Finish sorts the residual buffer, merges every run, and writes the
// complete TNG2 image to out. The writer only accepts Close afterwards.
func (w *CSRWriter) Finish(out io.Writer) (CSRStats, error) {
	if w.finished {
		return CSRStats{}, fmt.Errorf("graph: csr writer already finished")
	}
	w.finished = true
	w.sortBuffer()

	// Pass 1: degrees. offsets[src+1] counts arcs out of src, then the
	// prefix sum turns counts into CSR offsets.
	offsets := make([]int64, w.n+1)
	var arcs int64
	err := w.merge(func(batch []uint64) error {
		for _, a := range batch {
			offsets[(a>>32)+1]++
		}
		arcs += int64(len(batch))
		return nil
	})
	if err != nil {
		return CSRStats{}, err
	}
	for i := 0; i < w.n; i++ {
		offsets[i+1] += offsets[i]
	}
	m := arcs / 2

	tw := newTNG2Writer(out, w.n, m)
	for _, off := range offsets {
		tw.offset(off)
	}
	// Pass 2: the adjacency section is the dst halves of the merged arc
	// stream, which arrives already grouped by src and sorted by dst —
	// exactly CSR neighbor-list order.
	err = w.merge(func(batch []uint64) error {
		for _, a := range batch {
			tw.neighbor(NodeID(uint32(a)))
		}
		return tw.err
	})
	if err == nil {
		err = tw.close()
	}
	if err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer: %w", err)
	}
	return CSRStats{Nodes: w.n, Edges: m, Runs: len(w.runs), SpilledBytes: w.spilled}, nil
}

// FinishFile is Finish writing to the named file.
func (w *CSRWriter) FinishFile(path string) (CSRStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer: %w", err)
	}
	st, ferr := w.Finish(f)
	if cerr := f.Close(); ferr == nil && cerr != nil {
		ferr = fmt.Errorf("graph: csr writer close %s: %w", path, cerr)
	}
	return st, ferr
}

// Close removes the writer's spill files. It is idempotent and safe to
// defer immediately after NewCSRWriter.
func (w *CSRWriter) Close() error {
	for _, f := range w.runs {
		f.Close()
	}
	w.runs = nil
	w.buf, w.scratch = nil, nil
	if w.dir != "" {
		dir := w.dir
		w.dir = ""
		return os.RemoveAll(dir)
	}
	return nil
}
