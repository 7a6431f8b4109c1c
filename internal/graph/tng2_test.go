package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeFile dumps raw bytes for OpenMapped tests.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// resealTNG2 recomputes the checksum of a (possibly forged) image so only
// the CSR-invariant validation can reject it.
func resealTNG2(data []byte) {
	sum := crc32.ChecksumIEEE(data[:len(data)-tng2FooterSize])
	binary.LittleEndian.PutUint32(data[len(data)-tng2FooterSize:], sum)
}

// tng2Bytes serializes g to a TNG2 image.
func tng2Bytes(t *testing.T, v View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func graphsEqual(t *testing.T, want *Graph, got View, label string) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: n/m = (%d,%d), want (%d,%d)",
			label, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	var buf []NodeID
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		buf = got.AppendNeighbors(v, buf[:0])
		ns := want.Neighbors(v)
		if len(buf) != len(ns) {
			t.Fatalf("%s: node %d degree %d, want %d", label, v, len(buf), len(ns))
		}
		for i := range ns {
			if buf[i] != ns[i] {
				t.Fatalf("%s: node %d neighbor %d = %d, want %d", label, v, i, buf[i], ns[i])
			}
		}
	}
}

func TestTNG2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"clique", cliqueGraph(t, 9)},
		{"path", pathGraph(t, 17)},
		{"random", randomGraph(t, 200, 0.05, 4)},
		{"isolated", NewBuilder(11).Build()},
		{"empty", NewBuilder(0).Build()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := tng2Bytes(t, tc.g)
			got, err := ReadTNG2(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, tc.g, got, "read")
		})
	}
}

func TestTNG2OpenMapped(t *testing.T) {
	g := randomGraph(t, 300, 0.03, 9)
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, mg, "mapped")
	// The mapped view must serve the CSR fast paths.
	if _, ok := AsCSR(mg); !ok {
		t.Error("mapped view is not a CSRSource")
	}
	if _, ok := View(mg).(NeighborSlicer); !ok {
		t.Error("mapped view is not a NeighborSlicer")
	}
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "missing.tng2")); err == nil {
		t.Error("OpenMapped(missing): want error")
	}
}

// TestTNG2Corruption damages every region of a valid image — header,
// section table, offsets, adjacency, checksum, trailer, length — and
// requires both readers to reject each with ErrBadFormat.
func TestTNG2Corruption(t *testing.T) {
	g := randomGraph(t, 60, 0.12, 2)
	data := tng2Bytes(t, g)

	damage := map[string]func([]byte) []byte{
		"magic":          func(d []byte) []byte { d[0] = 'X'; return d },
		"version":        func(d []byte) []byte { d[4] = 99; return d },
		"node-count":     func(d []byte) []byte { d[8] ^= 0xFF; return d },
		"edge-count":     func(d []byte) []byte { d[16] ^= 0xFF; return d },
		"section-table":  func(d []byte) []byte { d[32] ^= 0x01; return d },
		"offsets-bytes":  func(d []byte) []byte { d[tng2HeaderSize+9] ^= 0x10; return d },
		"adjacency-byte": func(d []byte) []byte { d[len(d)-tng2FooterSize-2] ^= 0x40; return d },
		"crc":            func(d []byte) []byte { d[len(d)-8] ^= 0x01; return d },
		"trailer":        func(d []byte) []byte { d[len(d)-1] = '?'; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)-5] },
		"extended":       func(d []byte) []byte { return append(d, 0) },
		"empty":          func(d []byte) []byte { return nil },
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			bad := fn(bytes.Clone(data))
			if _, err := ReadTNG2(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
				t.Errorf("ReadTNG2: %v, want ErrBadFormat", err)
			}
			path := filepath.Join(t.TempDir(), "bad.tng2")
			if err := writeFile(path, bad); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenMapped(path); !errors.Is(err, ErrBadFormat) {
				t.Errorf("OpenMapped: %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestTNG2BadCSRBody forges an image whose checksum is valid but whose
// CSR payload violates the invariants; validateCSR must catch it.
func TestTNG2BadCSRBody(t *testing.T) {
	g, err := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	data := tng2Bytes(t, g)
	// Point node 0's first neighbor at itself (self loop), then re-seal
	// the checksum so only validateCSR can object.
	forged := bytes.Clone(data)
	forged[tng2HeaderSize+(4+1)*8] = 0 // first adjacency entry: neighbor of node 0 -> 0
	resealTNG2(forged)
	if _, err := ReadTNG2(bytes.NewReader(forged)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("self loop body: %v, want ErrBadFormat", err)
	}

	// Decreasing offsets.
	forged = bytes.Clone(data)
	forged[tng2HeaderSize+2*8] = 0xFF
	resealTNG2(forged)
	if _, err := ReadTNG2(bytes.NewReader(forged)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad offsets body: %v, want ErrBadFormat", err)
	}
}

func TestWriteCSRRejectsInconsistentView(t *testing.T) {
	// A view whose Degree disagrees with NumEdges must be rejected by the
	// degree-sum check rather than producing a malformed file.
	v := brokenDegreeView{Graph: pathGraph(t, 5)}
	if err := WriteCSR(&bytes.Buffer{}, v); err == nil {
		t.Error("WriteCSR accepted a view with an inconsistent degree sum")
	}
	// One whose neighbor lists disagree with its degrees must fail the
	// section writer's count check.
	if err := WriteCSR(&bytes.Buffer{}, shortListView{Graph: pathGraph(t, 5)}); err == nil {
		t.Error("WriteCSR accepted a view whose neighbor lists are shorter than its degrees")
	}
}

// brokenDegreeView doubles NumEdges to break the handshake invariant.
type brokenDegreeView struct{ *Graph }

func (b brokenDegreeView) NumEdges() int64 { return b.Graph.NumEdges() * 2 }

// shortListView lists no neighbors for node 0 but keeps its degree.
type shortListView struct{ *Graph }

func (s shortListView) AppendNeighbors(v NodeID, buf []NodeID) []NodeID {
	if v == 0 {
		return buf
	}
	return s.Graph.AppendNeighbors(v, buf)
}

// FuzzReadTNG2: arbitrary bytes must never panic; valid parses must
// satisfy the simple-graph invariants.
func FuzzReadTNG2(f *testing.F) {
	g, _ := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	var buf bytes.Buffer
	_ = WriteCSR(&buf, g)
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:tng2HeaderSize])
	f.Add(seed[:len(seed)-tng2FooterSize])
	f.Add([]byte("TNG2"))
	f.Add([]byte{})
	flip := bytes.Clone(seed)
	flip[tng2HeaderSize+3] ^= 0x80
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadTNG2(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("non-format error from in-memory reader: %v", err)
			}
			return
		}
		var degSum int64
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			degSum += int64(g.Degree(v))
		}
		if degSum != 2*g.NumEdges() {
			t.Fatalf("handshake lemma violated")
		}
	})
}
