package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDatasetToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := run([]string{"-dataset", "rice-grad", "-out", out}); err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadEdgeList(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Errorf("nodes = %d, want 500", g.NumNodes())
	}
}

func TestRunModels(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		name string
		args []string
	}{
		{"ba", []string{"-model", "ba", "-n", "100", "-param", "3"}},
		{"gnp", []string{"-model", "gnp", "-n", "100", "-param", "0.05"}},
		{"gnm", []string{"-model", "gnm", "-n", "100", "-param", "200"}},
		{"ws", []string{"-model", "ws", "-n", "100", "-param", "4", "-beta", "0.2"}},
		{"sbm", []string{"-model", "sbm", "-n", "120", "-param", "0.3", "-communities", "3"}},
		{"clustered", []string{"-model", "clustered", "-n", "200", "-param", "3", "-communities", "4", "-bridges", "2"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := filepath.Join(dir, tt.name+".txt")
			args := append(tt.args, "-out", out)
			if err := run(args); err != nil {
				t.Fatal(err)
			}
			g, err := graph.LoadEdgeList(out)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumEdges() == 0 {
				t.Error("generated graph has no edges")
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{},
		{"-model", "nope"},
		{"-dataset", "nope"},
		{"-dataset", "rice-grad", "-model", "ba"},
		{"-model", "ba", "-n", "2", "-param", "5"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestRunStdout(t *testing.T) {
	// Default output is stdout; redirect to capture.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-model", "ba", "-n", "20", "-param", "2"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	if !strings.Contains(string(buf[:n]), "# nodes: 20") {
		t.Errorf("stdout missing header: %q", string(buf[:n]))
	}
}

// openTNG2 maps a TNG2 file for the rest of the test.
func openTNG2(t *testing.T, path string) *graph.Mapped {
	t.Helper()
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

func TestRunFormatOutputs(t *testing.T) {
	dir := t.TempDir()
	// Extension-inferred TNG2.
	tng2 := filepath.Join(dir, "g.tng2")
	if err := run([]string{"-model", "ba", "-n", "90", "-param", "3", "-out", tng2}); err != nil {
		t.Fatal(err)
	}
	if n := openTNG2(t, tng2).NumNodes(); n != 90 {
		t.Errorf("tng2 nodes = %d, want 90", n)
	}
	// Explicit -format overrides the extension.
	dat := filepath.Join(dir, "g.dat")
	if err := run([]string{"-model", "ba", "-n", "90", "-param", "3", "-format", "tng2", "-out", dat}); err != nil {
		t.Fatal(err)
	}
	if n := openTNG2(t, dat).NumNodes(); n != 90 {
		t.Errorf("-format tng2 nodes = %d, want 90", n)
	}
	// TNG1 is import-only: asking for it, by flag or by extension, fails
	// with an error that points at tng2, and writes nothing.
	for _, args := range [][]string{
		{"-format", "tng1", "-out", filepath.Join(dir, "x.dat")},
		{"-out", filepath.Join(dir, "x.bin")},
		{"-out", filepath.Join(dir, "x.tng1")},
	} {
		err := run(append([]string{"-model", "ba", "-n", "20", "-param", "2"}, args...))
		if err == nil || !strings.Contains(err.Error(), "tng2") {
			t.Errorf("run(%v) = %v, want an error naming tng2", args, err)
		}
		if _, serr := os.Stat(args[len(args)-1]); serr == nil {
			t.Errorf("run(%v) wrote its output", args)
		}
	}
	// Binary formats cannot go to stdout.
	if err := run([]string{"-model", "ba", "-n", "20", "-param", "2", "-format", "tng2"}); err == nil {
		t.Error("tng2 to stdout: want error")
	}
	if err := run([]string{"-model", "ba", "-n", "20", "-param", "2", "-format", "nope", "-out", filepath.Join(dir, "x")}); err == nil {
		t.Error("unknown format: want error")
	}
}

func TestRunStreamed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ba.tng2")
	if err := run([]string{"-model", "ba", "-n", "400", "-param", "3", "-seed", "9", "-stream", "-out", out}); err != nil {
		t.Fatal(err)
	}
	// The streamed image is byte-identical to SaveCSR of the eager graph.
	eager, err := gen.BarabasiAlbert(400, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "eager.tng2")
	if err := graph.SaveCSR(ref, eager); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed image (%d bytes) differs from SaveCSR of the eager graph (%d bytes)", len(got), len(want))
	}
	// Streaming constraints.
	for _, args := range [][]string{
		{"-model", "ba", "-n", "50", "-param", "3", "-stream"},
		{"-model", "ba", "-n", "50", "-param", "3", "-stream", "-format", "tng1", "-out", out},
		{"-model", "gnp", "-n", "50", "-param", "0.1", "-stream", "-out", out},
		{"-dataset", "rice-grad", "-stream", "-out", out},
		{"-stream", "-out", out},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestRunConvert(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := run([]string{"-model", "ba", "-n", "120", "-param", "3", "-seed", "6", "-out", txt}); err != nil {
		t.Fatal(err)
	}
	orig, err := graph.LoadEdgeList(txt)
	if err != nil {
		t.Fatal(err)
	}
	// The TNG1 fixture comes from the format's reference encoder: no
	// command writes TNG1.
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "g.bin")
	if err := os.WriteFile(bin, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// tng1 -> tng2 (streamed) -> text, and tng1 -> text (built); both
	// must reproduce the original edge list.
	tng2 := filepath.Join(dir, "g.tng2")
	back := filepath.Join(dir, "back.txt")
	direct := filepath.Join(dir, "direct.txt")
	for _, args := range [][]string{
		{"convert", "-in", bin, "-out", tng2},
		{"convert", "-in", tng2, "-out", back},
		{"convert", "-in", bin, "-out", direct},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	for _, path := range []string{back, direct} {
		got, err := graph.LoadEdgeList(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumNodes() != orig.NumNodes() || got.NumEdges() != orig.NumEdges() {
			t.Fatalf("%s: (%d, %d) != original (%d, %d)", filepath.Base(path),
				got.NumNodes(), got.NumEdges(), orig.NumNodes(), orig.NumEdges())
		}
		gotEdges, origEdges := got.Edges(), orig.Edges()
		for i := range origEdges {
			if gotEdges[i] != origEdges[i] {
				t.Fatalf("%s: edge %d: %v != %v", filepath.Base(path), i, gotEdges[i], origEdges[i])
			}
		}
	}

	for _, args := range [][]string{
		{"convert"},
		{"convert", "-in", txt},
		{"convert", "-in", filepath.Join(dir, "missing.txt"), "-out", back},
		{"convert", "-in", txt, "-out", back, "-from", "nope"},
		{"convert", "-in", txt, "-out", filepath.Join(dir, "x.bin")},
		{"convert", "-in", txt, "-out", filepath.Join(dir, "x.dat"), "-to", "tng1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
