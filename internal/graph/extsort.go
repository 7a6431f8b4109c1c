package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// CSRWriter builds a TNG2 file from an unordered edge stream in bounded
// memory — the generation path for graphs too large for Builder, which
// needs the whole edge multiset in RAM at once. AddEdge packs each
// accepted edge into one uint64 (packArc) in chunks of edgeChunk edges
// that are never moved or copied. Once the chunks hold BufferArcs arcs
// (BufferArcs/2 edges), the next edge spills them: csrRows lays them out
// as sorted, deduplicated CSR rows, which go to a temporary run file as
// packed (src, dst) arcs in order, and the chunks are refilled. Finish
// lays out the residual edges the same way, dropping the chunks once
// their arcs are in rows. Without runs it writes those offsets and rows
// straight through a TNG2 section writer; with runs it reads the arcs
// in order twice (one pass counts degrees for the offsets section, one
// emits the adjacency section), k-way-merging the runs and the rows.
//
// Peak memory does not grow with the edge count. A writer that never
// spills holds about 8 bytes per arc at its peak (the chunks go once
// their arcs are in csrRows' first row array, before the second fills)
// plus csrRows' two n-entry arrays, offsets and cursors. A writer that
// spills keeps its chunks and row arrays from run to run, 12 bytes per
// buffered arc, and its merge counts degrees in the cursor array, so the
// bound is 12·BufferArcs + 16n bytes plus one chunk of spillChunk arcs
// (64 KiB) per spill run.
//
// CSRWriters are not safe for concurrent use. Always Close a writer —
// also after a successful Finish — to remove its spill files.
type CSRWriter struct {
	n        int
	chunks   [][]uint64 // edges since the last spill, packArc(u, v) each
	held     int        // edges in chunks
	perRun   int        // edges that fill the buffer: BufferArcs/2
	layout   rowLayout  // csrRows' arrays, reused from run to run
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
	// BufferArcs caps the arcs the writer buffers before it spills a
	// run. The buffer holds each edge once, 4 bytes per arc, in chunks
	// allocated as edges arrive, so a small graph never allocates the
	// cap; laying a full buffer out as rows takes 8 bytes per arc more.
	// The default is 1<<21 (8 MiB of chunks); tests shrink it to force
	// spills.
	BufferArcs int
}

// edgeChunk is the number of edges in one buffer chunk (512 KiB).
const edgeChunk = 1 << 16

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
	return &CSRWriter{n: n, perRun: bufArcs / 2, tempDir: cfg.TempDir}, nil
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
	if w.held == w.perRun {
		if err := w.spill(); err != nil {
			return err
		}
	}
	i := w.held / edgeChunk
	if i == len(w.chunks) {
		w.chunks = append(w.chunks, make([]uint64, 0, min(edgeChunk, w.perRun-w.held)))
	}
	w.chunks[i] = append(w.chunks[i], packArc(u, v))
	w.held++
	return nil
}

// packArc packs the arc u→v into a uint64 with u in the high half, so
// integer order is (src, dst) order.
func packArc(u, v NodeID) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// rowArcs hands out the packed arcs of CSR rows in (src, dst) order, a
// chunk at a time.
type rowArcs struct {
	offsets []int64
	adj     []NodeID
	u       int   // row of adj[p]
	p       int64 // next arc
}

// next fills buf's capacity with the next arcs and returns them; an
// empty result means the rows are done.
func (ra *rowArcs) next(buf []uint64) []uint64 {
	buf = buf[:0]
	for len(buf) < cap(buf) && ra.p < int64(len(ra.adj)) {
		for ra.offsets[ra.u+1] == ra.p {
			ra.u++
		}
		buf = append(buf, packArc(NodeID(ra.u), ra.adj[ra.p]))
		ra.p++
	}
	return buf
}

// spill lays the buffered edges out as rows, appends their arcs as a
// run file and empties the chunks for the next run.
func (w *CSRWriter) spill() error {
	offsets, adj := w.layout.csrRows(w.n, w.chunks)
	for i := range w.chunks {
		w.chunks[i] = w.chunks[i][:0]
	}
	w.held = 0
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
	ra := rowArcs{offsets: offsets, adj: adj}
	buf := make([]uint64, 0, spillChunk)
	enc := make([]byte, 0, spillChunk*8)
	for arcs := ra.next(buf); len(arcs) > 0; arcs = ra.next(buf) {
		enc = enc[:0]
		for _, a := range arcs {
			enc = binary.LittleEndian.AppendUint64(enc, a)
		}
		if _, err := f.Write(enc); err != nil {
			f.Close()
			return fmt.Errorf("graph: csr writer spill: %w", err)
		}
	}
	w.spilled += int64(len(adj)) * 8
	w.runs = append(w.runs, f)
	return nil
}

// spillChunk is the number of arcs a spill run is written and read in
// at a time: one Write or one io.ReadFull of 64 KiB.
const spillChunk = 1 << 13

// runReader streams one sorted run of arcs from mem: a spill run, which
// refills mem from its file one chunk at a time, decoding through raw,
// which every reader of a merge shares; or the residual buffer's rows.
type runReader struct {
	f     io.Reader // nil for the rows, and once the run is read
	rows  *rowArcs  // nil for a spill run
	raw   []byte
	chunk []uint64
	mem   []uint64
	cur   uint64
	ok    bool
}

func (r *runReader) advance() error {
	if len(r.mem) == 0 {
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

// refill reads the run's next chunk into mem. A short chunk is a spill
// run's last; an empty mem means the run is done.
func (r *runReader) refill() error {
	if r.rows != nil {
		r.mem = r.rows.next(r.chunk)
		return nil
	}
	if r.f == nil {
		return nil
	}
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

// merge streams the union of all runs and the residual rows in
// ascending arc order with global dedup, handing fn the distinct arcs
// in consecutive batches. It can be run repeatedly; each pass re-reads
// the spill runs and the rows from the start.
func (w *CSRWriter) merge(rest rowArcs, fn func(arcs []uint64) error) error {
	readers := make([]*runReader, 0, len(w.runs)+1)
	raw := make([]byte, spillChunk*8)
	for _, f := range w.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("graph: csr writer merge: %w", err)
		}
		readers = append(readers, &runReader{f: f, raw: raw, chunk: make([]uint64, spillChunk)})
	}
	readers = append(readers, &runReader{rows: &rest, chunk: make([]uint64, 0, spillChunk)})
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

// Finish lays the residual edges out as rows, merges them with every
// run, and writes the complete TNG2 image to out. The writer only
// accepts Close afterwards.
func (w *CSRWriter) Finish(out io.Writer) (CSRStats, error) {
	if w.finished {
		return CSRStats{}, fmt.Errorf("graph: csr writer already finished")
	}
	w.finished = true
	// No arc can come any more, so the chunks go with the writer's
	// reference: csrRows drops them once their arcs are in rows.
	chunks := w.chunks
	w.chunks, w.held = nil, 0
	rowOffsets, adj := w.layout.csrRows(w.n, chunks)

	if len(w.runs) > 0 {
		return w.finishMerged(out, rowArcs{offsets: rowOffsets, adj: adj})
	}
	m := int64(len(adj)) / 2
	tw := newTNG2Writer(out, w.n, m)
	for _, off := range rowOffsets {
		tw.offset(off)
	}
	for _, v := range adj {
		tw.neighbor(v)
	}
	if err := tw.close(); err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer: %w", err)
	}
	return CSRStats{Nodes: w.n, Edges: m}, nil
}

// finishMerged is Finish for a writer with spill runs: it writes the
// TNG2 image of the runs merged with the residual rows in rest.
func (w *CSRWriter) finishMerged(out io.Writer, rest rowArcs) (CSRStats, error) {
	// Pass 1: degrees. offsets[src+1] counts arcs out of src, then the
	// prefix sum turns counts into CSR offsets. csrRows is done with its
	// cursor array, which has room for them.
	offsets := resize(w.layout.next, w.n+1)
	clear(offsets)
	var arcs int64
	err := w.merge(rest, func(batch []uint64) error {
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
	err = w.merge(rest, func(batch []uint64) error {
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
	w.chunks, w.layout = nil, rowLayout{}
	if w.dir != "" {
		dir := w.dir
		w.dir = ""
		return os.RemoveAll(dir)
	}
	return nil
}
