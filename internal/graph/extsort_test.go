package graph

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// oracleArcs packs both arcs of every non-loop edge into uint64s (src
// in the high half) and sorts and dedups them with the standard
// library, so the counting construction that Builder and CSRWriter
// share is checked against code it does not share.
func oracleArcs(edges []Edge) []uint64 {
	arcs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U != e.V {
			arcs = append(arcs, uint64(e.U)<<32|uint64(uint32(e.V)), uint64(e.V)<<32|uint64(uint32(e.U)))
		}
	}
	slices.Sort(arcs)
	return slices.Compact(arcs)
}

// writeOracleTNG2 encodes the TNG2 image of n nodes and sorted distinct
// arcs field by field, without the package's header or section writer:
// the header, the offsets read off the arcs, their dst halves, then the
// CRC of all that and the trailer.
func writeOracleTNG2(w io.Writer, n int, arcs []uint64) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	le := binary.LittleEndian
	var b [8]byte
	put64 := func(x uint64) { le.PutUint64(b[:], x); bw.Write(b[:]) }
	m := uint64(len(arcs) / 2)
	offLen := uint64(n+1) * 8
	bw.WriteString("TNG2")
	le.PutUint32(b[:4], 1)
	bw.Write(b[:4])
	for _, x := range []uint64{uint64(n), m, 64, offLen, 64 + offLen, 2 * m * 4, 0} {
		put64(x)
	}
	i := 0
	for u := 0; u <= n; u++ {
		for i < len(arcs) && int(arcs[i]>>32) < u {
			i++
		}
		put64(uint64(i))
	}
	for _, a := range arcs {
		le.PutUint32(b[:4], uint32(a))
		bw.Write(b[:4])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	le.PutUint32(b[:4], crc.Sum32())
	copy(b[4:], "2GNT")
	_, err := w.Write(b[:])
	return err
}

// digest returns the SHA-256 of what write writes, so multi-megabyte
// images compare without being held in memory.
func digest(t testing.TB, write func(io.Writer) error) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// checkWriters requires CSRWriter (once per buffer size; 0 is the
// default) and WriteCSR of the Builder graph to write the oracle's bytes
// for the edge stream, and returns the CSRWriter stats per buffer size.
func checkWriters(t testing.TB, n int, edges []Edge, bufArcs ...int) []CSRStats {
	t.Helper()
	want := digest(t, func(w io.Writer) error { return writeOracleTNG2(w, n, oracleArcs(edges)) })
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdgeSafe(e.U, e.V)
	}
	g := b.Build()
	if got := digest(t, func(w io.Writer) error { return WriteCSR(w, g) }); got != want {
		t.Errorf("n=%d: WriteCSR of the Builder graph differs from the oracle's", n)
	}
	stats := make([]CSRStats, len(bufArcs))
	for i, ba := range bufArcs {
		cw, err := NewCSRWriter(n, CSRWriterConfig{TempDir: t.TempDir(), BufferArcs: ba})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := cw.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		st := &stats[i]
		if got := digest(t, func(w io.Writer) (err error) { *st, err = cw.Finish(w); return err }); got != want {
			t.Errorf("n=%d buffer %d: CSRWriter image differs from the oracle's", n, ba)
		}
		if err := cw.Close(); err != nil {
			t.Error(err)
		}
		if st.Nodes != n || st.Edges != g.NumEdges() {
			t.Errorf("n=%d buffer %d: stats %+v, want n=%d m=%d", n, ba, *st, n, g.NumEdges())
		}
	}
	return stats
}

// randomEdges draws tries endpoint pairs uniformly, self loops and
// duplicates included.
func randomEdges(n, tries int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, tries)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return edges
}

// hubEdges is a skewed edge stream over n nodes: random edges plus reps
// copies of an edge from every node to a hub in mid-range, shuffled, so
// the hub's row holds all n−1 other nodes, each arriving reps times or
// more, and every other row holds the hub.
func hubEdges(n, reps int, seed int64) []Edge {
	edges := randomEdges(n, 2*n, seed)
	hub := NodeID(n / 2)
	for r := 0; r < reps; r++ {
		for v := NodeID(0); int(v) < n; v++ {
			e := Edge{hub, v}
			if r%2 == 1 {
				e = Edge{v, hub}
			}
			edges = append(edges, e)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func TestCSRWriterMatchesBuilder(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges []Edge
	}{
		{150, randomEdges(150, 2000, 1)},
		{3000, hubEdges(3000, 4, 1)},
	} {
		st := checkWriters(t, tc.n, tc.edges, 0)[0]
		if st.Runs != 0 || st.SpilledBytes != 0 {
			t.Errorf("n=%d: unexpected spills for in-memory build: %+v", tc.n, st)
		}
	}
}

func TestCSRWriterSpillsMatchBuilder(t *testing.T) {
	// A 64-arc buffer forces dozens of sorted runs plus a residual buffer;
	// the k-way merge with global dedup must still write the same bytes.
	st := checkWriters(t, 120, randomEdges(120, 3000, 7), 64)[0]
	if st.Runs < 2 {
		t.Errorf("expected >= 2 spill runs, got %+v", st)
	}
	if st.SpilledBytes == 0 {
		t.Error("expected nonzero spilled bytes")
	}
	// The hub's row spans every run, and so do its repeats.
	if st := checkWriters(t, 3000, hubEdges(3000, 4, 2), 2000)[0]; st.Runs < 4 {
		t.Errorf("expected >= 4 spill runs, got %+v", st)
	}
	// Runs longer than one spillChunk: with distinct edges every run
	// holds exactly BufferArcs arcs, so a buffer of two chunks ends each
	// run on a chunk boundary and one two arcs larger ends it two arcs
	// into a third chunk.
	const n = 1000
	var edges []Edge
	for k := 1; k <= 20; k++ {
		for u := 0; u < n; u++ {
			edges = append(edges, Edge{NodeID(u), NodeID((u + k) % n)})
		}
	}
	for _, st := range checkWriters(t, n, edges, 2*spillChunk, 2*spillChunk+2) {
		if st.Runs != 2 {
			t.Errorf("expected 2 spill runs of %d arcs, got %+v", 2*spillChunk, st)
		}
	}
}

// TestCSRWriterDigitBoundaries writes graphs at n = 1 and 2 and on both
// sides of 2^11 and 2^22, in memory and spilled, against the oracle.
// Those are the node counts where IDs grow past 11 and 22 significant
// bits, the digit boundaries of the radix sort the counting construction
// replaced; no construction should treat them specially, and the
// largest make 32 MiB offsets arrays.
func TestCSRWriterDigitBoundaries(t *testing.T) {
	const d = 11
	for _, tc := range []struct {
		n, tries int
		long     bool // skipped under -short: the offsets section alone is 32 MiB
	}{
		{1, 10, false},
		{2, 10, false},
		{1 << d, 20000, false},
		{1<<d + 1, 20000, false},
		{1 << (2 * d), 3000, true},
		{1<<(2*d) + 1, 3000, true},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("32 MiB offsets section")
			}
			edges := randomEdges(tc.n, tc.tries, int64(tc.n))
			// The top node exercises the highest digit; a star on node 0
			// and repeats of one edge give long rows and duplicates.
			top := NodeID(tc.n - 1)
			for v := NodeID(0); v <= top && v < 50; v++ {
				edges = append(edges, Edge{top, v}, Edge{0, v}, Edge{top, 0})
			}
			st := checkWriters(t, tc.n, edges, 0, 2*len(edges)/5+1)
			if st[0].Runs != 0 {
				t.Errorf("in-memory build spilled: %+v", st[0])
			}
			if tc.n > 2 && st[1].Runs < 2 {
				t.Errorf("expected >= 2 spill runs, got %+v", st[1])
			}
		})
	}
}

// FuzzCSRWriter feeds CSRWriter an edge stream and a buffer size taken
// from the input — the first byte is the buffer size in arcs, the next
// two the node count, the rest endpoint pairs of two bytes each — and
// requires the oracle's image.
func FuzzCSRWriter(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 0, 2, 0, 1, 0, 1})
	f.Add([]byte{2, 0, 2, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{7, 8, 1, 8, 0, 0, 0, 0, 1, 8, 0, 7, 255, 3, 4, 0, 9, 8, 0, 0, 9})
	f.Add([]byte{3, 255, 255, 255, 254, 0, 0, 0, 1, 128, 0, 127, 255, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{5, 15, 255, 0, 1, 0, 2, 0, 3, 0, 4, 0, 2, 0, 1}) // high digits all zero
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bufArcs := int(data[0])
		if bufArcs == 1 {
			bufArcs = 2
		}
		n := int(binary.BigEndian.Uint16(data[1:3])) + 1
		var edges []Edge
		for p := data[3:]; len(p) >= 4; p = p[4:] {
			u := int(binary.BigEndian.Uint16(p)) % n
			v := int(binary.BigEndian.Uint16(p[2:])) % n
			edges = append(edges, Edge{NodeID(u), NodeID(v)})
		}
		checkWriters(t, n, edges, bufArcs)
	})
}

func TestCSRWriterEmptyAndIsolated(t *testing.T) {
	w, err := NewCSRWriter(9, CSRWriterConfig{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Self loops only: dropped, so the graph is edgeless.
	for i := NodeID(0); i < 9; i++ {
		if err := w.AddEdge(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	st, err := w.Finish(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 9 || st.Edges != 0 {
		t.Errorf("stats = %+v, want n=9 m=0", st)
	}
	g, err := ReadTNG2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 9 || g.NumEdges() != 0 {
		t.Errorf("graph = %v, want n=9 m=0", g)
	}
}

func TestCSRWriterErrors(t *testing.T) {
	w, err := NewCSRWriter(4, CSRWriterConfig{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AddEdge(0, 4); err == nil {
		t.Error("AddEdge(0,4) with n=4: want range error")
	}
	if err := w.AddEdge(-1, 0); err == nil {
		t.Error("AddEdge(-1,0): want range error")
	}
	var buf bytes.Buffer
	if _, err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(&buf); err == nil {
		t.Error("second Finish: want error")
	}
	if err := w.AddEdge(0, 1); err == nil {
		t.Error("AddEdge after Finish: want error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := NewCSRWriter(-1, CSRWriterConfig{}); err == nil {
		t.Error("NewCSRWriter(-1): want error")
	}
	if _, err := NewCSRWriter(4, CSRWriterConfig{BufferArcs: 1}); err == nil {
		t.Error("BufferArcs=1: want error")
	}
}

func TestCSRWriterFinishFileOpensMapped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := NewCSRWriter(80, CSRWriterConfig{TempDir: t.TempDir(), BufferArcs: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b := NewBuilder(80)
	for i := 0; i < 600; i++ {
		u, v := NodeID(rng.Intn(80)), NodeID(rng.Intn(80))
		b.AddEdgeSafe(u, v)
		if err := w.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "g.tng2")
	if _, err := w.FinishFile(path); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	graphsEqual(t, b.Build(), mg, "finishfile-mapped")
}
