package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// CSRWriter builds a TNG2 file from an unordered edge stream in bounded
// memory — the generation path for graphs too large for Builder, whose
// sort+dedup needs the whole edge multiset in RAM at once. Each accepted
// edge becomes two directed arcs packed into uint64s (src in the high 32
// bits, so integer order is (src, dst) order); arcs accumulate in a
// fixed-size buffer that is sorted, deduplicated and spilled to a
// temporary run file when full. Finish k-way-merges the runs (twice: one
// pass counts degrees for the offsets section, one pass streams the
// adjacency section) and writes the TNG2 image through a running CRC, so
// peak memory is O(BufferArcs + n) regardless of the edge count.
//
// CSRWriters are not safe for concurrent use. Always Close a writer —
// also after a successful Finish — to remove its spill files.
type CSRWriter struct {
	n        int
	buf      []uint64
	cap      int
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
	// BufferArcs caps the in-memory arc buffer (8 bytes per arc). The
	// default 1<<21 (16 MiB) keeps a 10^7-node generation comfortably
	// under typical container limits; tests shrink it to force spills.
	BufferArcs int
}

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
	return &CSRWriter{
		n:       n,
		buf:     make([]uint64, 0, bufArcs),
		cap:     bufArcs,
		tempDir: cfg.TempDir,
	}, nil
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
	if len(w.buf)+2 > w.cap {
		if err := w.spill(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, uint64(u)<<32|uint64(uint32(v)), uint64(v)<<32|uint64(uint32(u)))
	return nil
}

// spill sorts and dedups the buffer and appends it as a run file.
func (w *CSRWriter) spill() error {
	sortDedup(&w.buf)
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
	bw := bufio.NewWriterSize(f, 1<<20)
	var scratch [8]byte
	for _, a := range w.buf {
		binary.LittleEndian.PutUint64(scratch[:], a)
		if _, err := bw.Write(scratch[:]); err != nil {
			f.Close()
			return fmt.Errorf("graph: csr writer spill: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("graph: csr writer spill: %w", err)
	}
	w.spilled += int64(len(w.buf)) * 8
	w.runs = append(w.runs, f)
	w.buf = w.buf[:0]
	return nil
}

// sortDedup sorts arcs ascending and removes consecutive duplicates.
func sortDedup(buf *[]uint64) {
	b := *buf
	slices.Sort(b)
	*buf = slices.Compact(b)
}

// runReader streams one sorted spill run (or the in-memory buffer).
type runReader struct {
	br      *bufio.Reader
	mem     []uint64
	cur     uint64
	ok      bool
	scratch [8]byte
}

func (r *runReader) advance() error {
	if r.br == nil {
		if len(r.mem) == 0 {
			r.ok = false
			return nil
		}
		r.cur = r.mem[0]
		r.mem = r.mem[1:]
		r.ok = true
		return nil
	}
	if _, err := io.ReadFull(r.br, r.scratch[:]); err != nil {
		if err == io.EOF {
			r.ok = false
			return nil
		}
		return fmt.Errorf("graph: csr writer merge: %w", err)
	}
	r.cur = binary.LittleEndian.Uint64(r.scratch[:])
	r.ok = true
	return nil
}

// merge streams the union of all runs and the buffer in ascending arc
// order with global dedup, calling fn once per distinct arc. It can be
// run repeatedly; each pass re-reads the spill runs from the start.
func (w *CSRWriter) merge(fn func(arc uint64) error) error {
	readers := make([]*runReader, 0, len(w.runs)+1)
	for _, f := range w.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("graph: csr writer merge: %w", err)
		}
		readers = append(readers, &runReader{br: bufio.NewReaderSize(f, 1<<20)})
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
	var last uint64
	first := true
	for len(heap) > 0 {
		r := heap[0]
		arc := r.cur
		if first || arc != last {
			if err := fn(arc); err != nil {
				return err
			}
			last = arc
			first = false
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
	return nil
}

// Finish sorts the residual buffer, merges every run, and writes the
// complete TNG2 image to out. The writer only accepts Close afterwards.
func (w *CSRWriter) Finish(out io.Writer) (CSRStats, error) {
	if w.finished {
		return CSRStats{}, fmt.Errorf("graph: csr writer already finished")
	}
	w.finished = true
	sortDedup(&w.buf)

	// Pass 1: degrees. offsets[src+1] counts arcs out of src, then the
	// prefix sum turns counts into CSR offsets.
	offsets := make([]int64, w.n+1)
	var arcs int64
	err := w.merge(func(a uint64) error {
		offsets[(a>>32)+1]++
		arcs++
		return nil
	})
	if err != nil {
		return CSRStats{}, err
	}
	for i := 0; i < w.n; i++ {
		offsets[i+1] += offsets[i]
	}
	m := arcs / 2

	bw := bufio.NewWriterSize(out, 1<<16)
	cw := &crcWriter{w: bw}
	h := tng2Header(w.n, m)
	if _, err := cw.Write(h[:]); err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer header: %w", err)
	}
	var scratch [8]byte
	le := binary.LittleEndian
	for _, off := range offsets {
		le.PutUint64(scratch[:], uint64(off))
		if _, err := cw.Write(scratch[:]); err != nil {
			return CSRStats{}, fmt.Errorf("graph: csr writer offsets: %w", err)
		}
	}
	// Pass 2: the adjacency section is the dst halves of the merged arc
	// stream, which arrives already grouped by src and sorted by dst —
	// exactly CSR neighbor-list order.
	err = w.merge(func(a uint64) error {
		le.PutUint32(scratch[:4], uint32(a))
		_, werr := cw.Write(scratch[:4])
		return werr
	})
	if err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer adjacency: %w", err)
	}
	var footer [tng2FooterSize]byte
	le.PutUint32(footer[0:4], cw.sum)
	copy(footer[4:8], tng2Trailer[:])
	if _, err := bw.Write(footer[:]); err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer footer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return CSRStats{}, fmt.Errorf("graph: csr writer flush: %w", err)
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
	w.buf = nil
	if w.dir != "" {
		dir := w.dir
		w.dir = ""
		return os.RemoveAll(dir)
	}
	return nil
}
