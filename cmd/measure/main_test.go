package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func tempGraphFile(t *testing.T) string {
	t.Helper()
	g, err := gen.BarabasiAlbert(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllFromFile(t *testing.T) {
	path := tempGraphFile(t)
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "30", "all"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndividualMeasurements(t *testing.T) {
	path := tempGraphFile(t)
	for _, what := range []string{"slem", "mixing", "cores", "expansion"} {
		if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", what}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

func TestRunCentralityAndCommunity(t *testing.T) {
	path := tempGraphFile(t)
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", "centrality", "community"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDataset(t *testing.T) {
	if err := run([]string{"-dataset", "rice-grad", "-sources", "5", "-steps", "20", "-expansion-sources", "30", "cores"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := tempGraphFile(t)
	tests := [][]string{
		{},
		{"-in", path, "-dataset", "rice-grad"},
		{"-dataset", "nope"},
		{"-in", filepath.Join(t.TempDir(), "missing.txt")},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestRunBinaryInput(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", "cores"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMappedInput(t *testing.T) {
	g, err := gen.BarabasiAlbert(180, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := graph.SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", "cores"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSharded measures the same mmap-backed graph at 1 and 3 shards;
// the two reports must be byte-identical, as in scripts/scalesmoke.sh.
func TestRunSharded(t *testing.T) {
	g, err := gen.BarabasiAlbert(250, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := graph.SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	var reports []string
	for _, shards := range []string{"1", "3"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-in", path, "-shards", shards, "-sources", "5", "-steps", "20", "all"})
		})
		if err != nil {
			t.Fatalf("shards=%s: %v", shards, err)
		}
		reports = append(reports, out)
	}
	if reports[0] == "" || reports[0] != reports[1] {
		t.Errorf("3-shard report differs from monolithic:\n--- shards=1\n%s\n--- shards=3\n%s", reports[0], reports[1])
	}
	if err := run([]string{"-in", path, "-shards", "0", "cores"}); err == nil {
		t.Error("-shards 0: want error")
	}
}

// captureStdout redirects os.Stdout around fn; run prints its report
// there directly.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(rp)
		done <- string(data)
	}()
	runErr := fn()
	wp.Close()
	return <-done, runErr
}
