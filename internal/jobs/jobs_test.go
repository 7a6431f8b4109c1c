package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/trustnet/trustnet/internal/report"
)

func TestConfigFingerprintStableAndSensitive(t *testing.T) {
	type cfg struct {
		Job   string
		Quick bool
		Seed  int64
	}
	a := ConfigFingerprint(cfg{Job: "tableI", Quick: true, Seed: 1})
	if len(a) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", a)
	}
	if again := ConfigFingerprint(cfg{Job: "tableI", Quick: true, Seed: 1}); again != a {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, again)
	}
	for _, other := range []cfg{
		{Job: "figure1", Quick: true, Seed: 1},
		{Job: "tableI", Quick: false, Seed: 1},
		{Job: "tableI", Quick: true, Seed: 2},
	} {
		if ConfigFingerprint(other) == a {
			t.Errorf("config %+v collides with the base config", other)
		}
	}
}

// countedConfig counts how often it is encoded.
type countedConfig struct {
	Seed    int64
	encodes *atomic.Int32
}

func (c countedConfig) MarshalJSON() ([]byte, error) {
	c.encodes.Add(1)
	return json.Marshal(struct{ Seed int64 }{c.Seed})
}

// TestNewFingerprintsOnceOnFirstUse builds a job and keys it from eight
// goroutines at once: New must not encode the config, the first
// Fingerprint call must encode it once for all eight, and every caller
// must read ConfigFingerprint of the config.
func TestNewFingerprintsOnceOnFirstUse(t *testing.T) {
	var encodes atomic.Int32
	cfg := countedConfig{Seed: 7, encodes: &encodes}
	j := New("lazy", cfg, nil)
	if n := encodes.Load(); n != 0 {
		t.Fatalf("New encoded the config %d times, want 0", n)
	}
	want := ConfigFingerprint(cfg)
	encodes.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := j.Fingerprint(); got != want {
				t.Errorf("Fingerprint = %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
	if n := encodes.Load(); n != 1 {
		t.Fatalf("eight Fingerprint calls encoded the config %d times, want 1", n)
	}
}

func TestArtifactContentDigestCoversFiles(t *testing.T) {
	a := &Artifact{Summary: "s", Files: []File{{Path: "x.csv", Data: []byte("1,2\n")}}}
	d := a.ContentDigest()
	b := &Artifact{Summary: "s", Files: []File{{Path: "x.csv", Data: []byte("1,3\n")}}}
	if b.ContentDigest() == d {
		t.Error("digest unchanged after file content change")
	}
	c := &Artifact{Summary: "s", Files: []File{{Path: "y.csv", Data: []byte("1,2\n")}}}
	if c.ContentDigest() == d {
		t.Error("digest unchanged after file path change")
	}
}

// testJob returns a counting job producing a deterministic artifact.
func testJob(name string, runs *int) Job {
	type cfg struct{ Name string }
	return New(name, cfg{Name: name}, func(ctx context.Context, env Env) (*Artifact, error) {
		*runs++
		b := NewBuilder()
		b.Printf("summary of %s\n", name)
		b.AddFile(name+".csv", []byte("series,x,y\na,1,2\n"))
		return b.Artifact(), nil
	})
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	var n int
	for _, name := range []string{"tableI", "figure1", "epochs"} {
		if err := r.Register(testJob(name, &n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(testJob("TABLEI", &n)); err == nil {
		t.Error("case-insensitive duplicate registration accepted")
	}
	if got := r.Names(); len(got) != 3 || got[0] != "tableI" || got[2] != "epochs" {
		t.Errorf("Names() = %v, want registration order", got)
	}
	j, err := r.Lookup("TableI")
	if err != nil || j.Name() != "tableI" {
		t.Errorf("case-insensitive lookup = %v, %v", j, err)
	}
	if _, err := r.Lookup("zzzz"); err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off name should error without a suggestion: %v", err)
	}
}

func TestRegistryLookupSuggestsNearest(t *testing.T) {
	r := NewRegistry()
	var n int
	for _, name := range []string{"tableI", "figure1", "betweenness"} {
		if err := r.Register(testJob(name, &n)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.Lookup("tabel1")
	if err == nil || !strings.Contains(err.Error(), `did you mean "tableI"`) {
		t.Errorf("Lookup(tabel1) = %v, want a tableI suggestion", err)
	}
	_, err = r.Lookup("betweeness")
	if err == nil || !strings.Contains(err.Error(), `did you mean "betweenness"`) {
		t.Errorf("Lookup(betweeness) = %v, want a betweenness suggestion", err)
	}
	_, err = r.Lookup("between")
	if err == nil || !strings.Contains(err.Error(), `did you mean "betweenness"`) {
		t.Errorf("Lookup(between) = %v, want a betweenness suggestion", err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir())
	a := &Artifact{
		Job: "tableI", GraphFingerprint: "g1", ConfigFingerprint: "c1",
		Summary: "hello\n", Files: []File{{Path: "tableI.txt", Data: []byte("hello\n")}},
	}
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	got := s.Load("tableI", "g1", "c1")
	if got == nil {
		t.Fatal("saved artifact not loadable")
	}
	if got.Summary != a.Summary || len(got.Files) != 1 || !bytes.Equal(got.Files[0].Data, a.Files[0].Data) {
		t.Errorf("loaded artifact differs: %+v", got)
	}
	// Different key halves are different slots.
	if s.Load("tableI", "g2", "c1") != nil || s.Load("tableI", "g1", "c2") != nil || s.Load("figure1", "g1", "c1") != nil {
		t.Error("artifact served for a different key")
	}
	st, err := s.Stats()
	if err != nil || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("Stats() = %+v, %v", st, err)
	}
}

func TestStoreLoadRejectsCorruption(t *testing.T) {
	s := NewStore(t.TempDir())
	a := &Artifact{Job: "tableI", GraphFingerprint: "g1", ConfigFingerprint: "c1", Summary: "hello\n"}
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	path := s.Path("tableI", Key("tableI", "g1", "c1"))
	before := obsCacheCorrupt.Value()

	// Truncated JSON.
	if err := os.WriteFile(path, []byte(`{"schema":"trustnet/art`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Load("tableI", "g1", "c1") != nil {
		t.Error("truncated envelope replayed")
	}

	// Valid JSON, tampered content (digest mismatch).
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte("hello"), []byte("jello"), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper did not change the envelope")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Load("tableI", "g1", "c1") != nil {
		t.Error("digest-mismatched envelope replayed")
	}
	if got := obsCacheCorrupt.Value() - before; got != 2 {
		t.Errorf("corrupt counter advanced by %d, want 2", got)
	}
}

func TestStoreLoadRejectsStaleSchema(t *testing.T) {
	s := NewStore(t.TempDir())
	a := &Artifact{Job: "tableI", GraphFingerprint: "g1", ConfigFingerprint: "c1", Summary: "hello\n"}
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	path := s.Path("tableI", Key("tableI", "g1", "c1"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Replace(data, []byte(SchemaVersion), []byte("trustnet/artifact/v0"), 1)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	before := obsCacheStale.Value()
	if s.Load("tableI", "g1", "c1") != nil {
		t.Error("stale-schema envelope replayed")
	}
	if obsCacheStale.Value() == before {
		t.Error("stale counter did not advance")
	}
}

func TestRunnerCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	j := testJob("tableI", &runs)
	var out1 bytes.Buffer
	r := &Runner{
		Cache:  NewStore(filepath.Join(dir, "cache")),
		Env:    Env{GraphFingerprint: "g1"},
		OutDir: dir,
		Stdout: &out1,
	}

	hitsBefore, execBefore := obsCacheHits.Value(), obsRunExecuted.Value()
	cached, err := r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if cached || runs != 1 {
		t.Fatalf("first run: cached=%v runs=%d, want executed once", cached, runs)
	}
	first, err := os.ReadFile(filepath.Join(dir, "tableI.csv"))
	if err != nil {
		t.Fatalf("artifact file not written: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "tableI.csv")); err != nil {
		t.Fatal(err)
	}

	var out2 bytes.Buffer
	r.Stdout = &out2
	cached, err = r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || runs != 1 {
		t.Fatalf("second run: cached=%v runs=%d, want replayed with zero executions", cached, runs)
	}
	// The replay is byte-identical: same file content, same summary.
	second, err := os.ReadFile(filepath.Join(dir, "tableI.csv"))
	if err != nil {
		t.Fatalf("replayed artifact file not written: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("replayed file differs:\n%q\nvs\n%q", first, second)
	}
	if !strings.Contains(out2.String(), "CACHED tableI") || !strings.Contains(out2.String(), "summary of tableI") {
		t.Errorf("replay output missing CACHED line or summary:\n%s", out2.String())
	}
	// Counter contract: exactly one hit, and the executed counter did not
	// advance on the replay (zero kernel invocations).
	if hits := obsCacheHits.Value() - hitsBefore; hits != 1 {
		t.Errorf("cache hits advanced by %d, want 1", hits)
	}
	if execs := obsRunExecuted.Value() - execBefore; execs != 1 {
		t.Errorf("executions advanced by %d across both runs, want 1 (replay must not execute)", execs)
	}
}

func TestRunnerCorruptEntryFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	j := testJob("tableI", &runs)
	cache := NewStore(filepath.Join(dir, "cache"))
	r := &Runner{Cache: cache, Env: Env{GraphFingerprint: "g1"}, OutDir: dir}
	if _, err := r.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cached envelope in place.
	path := cache.Path("tableI", Key("tableI", "g1", j.Fingerprint()))
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cached, err := r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if cached || runs != 2 {
		t.Fatalf("corrupted entry: cached=%v runs=%d, want recompute", cached, runs)
	}
	// The recompute repaired the cache: the next run hits again.
	cached, err = r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || runs != 2 {
		t.Fatalf("after repair: cached=%v runs=%d, want replay", cached, runs)
	}
}

// Two graph substrates get two cache slots: the second graph recomputes,
// and switching back replays the first graph's artifact instead of the
// second's having overwritten it.
func TestRunnerDistinctGraphsDistinctSlots(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	j := testJob("tableI", &runs)
	cache := NewStore(filepath.Join(dir, "cache"))
	r := &Runner{Cache: cache, Env: Env{GraphFingerprint: "g1"}, OutDir: dir}
	if _, err := r.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	r.Env.GraphFingerprint = "g2"
	cached, err := r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if cached || runs != 2 {
		t.Fatalf("different substrate: cached=%v runs=%d, want recompute", cached, runs)
	}
	for _, fp := range []string{"g1", "g2"} {
		r.Env.GraphFingerprint = fp
		cached, err := r.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if !cached || runs != 2 {
			t.Fatalf("rerun on %s: cached=%v runs=%d, want a replay of its own slot", fp, cached, runs)
		}
	}
}

// TestRunnerResumeKeyedByFingerprints: a cached artifact marks a job
// done only under its own key. The same job name over a different graph
// substrate, or with a different configuration, must recompute instead
// of replaying the other key's artifact.
func TestRunnerResumeKeyedByFingerprints(t *testing.T) {
	type cfg struct{ Seed int64 }
	for _, tc := range []struct {
		name  string
		graph string
		cfg   cfg
	}{
		{"graph", "g2", cfg{Seed: 1}},
		{"config", "g1", cfg{Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			runs := 0
			job := func(c cfg) Job {
				return New("tableI", c, func(ctx context.Context, env Env) (*Artifact, error) {
					runs++
					b := NewBuilder()
					b.Printf("seed %d\n", c.Seed)
					return b.Artifact(), nil
				})
			}
			r := &Runner{Cache: NewStore(filepath.Join(dir, "cache")), Env: Env{GraphFingerprint: "g1"}, OutDir: dir}
			if _, err := r.Run(context.Background(), job(cfg{Seed: 1})); err != nil {
				t.Fatal(err)
			}
			r.Env.GraphFingerprint = tc.graph
			cached, err := r.Run(context.Background(), job(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			if cached || runs != 2 {
				t.Fatalf("different %s: cached=%v runs=%d, want recompute", tc.name, cached, runs)
			}
		})
	}
}

// A job that fails writes nothing and caches nothing, even when it
// returns an artifact with its error; the next run executes it again.
func TestRunnerFailedJobWritesNothing(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	type cfg struct{}
	j := New("figure1", cfg{}, func(ctx context.Context, env Env) (*Artifact, error) {
		runs++
		b := NewBuilder()
		b.Printf("cut summary\n")
		b.AddFile("figure1a.csv", []byte("series,x,y\n"))
		return b.Artifact(), context.DeadlineExceeded
	})
	var out bytes.Buffer
	cache := NewStore(filepath.Join(dir, "cache"))
	r := &Runner{Cache: cache, Env: Env{GraphFingerprint: "g1"}, OutDir: dir, Stdout: &out}
	for run := 1; run <= 2; run++ {
		if _, err := r.Run(context.Background(), j); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: err = %v, want the job's error", run, err)
		}
		if runs != run {
			t.Fatalf("run %d: job executed %d times, want %d", run, runs, run)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "figure1a.csv")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed job's file written (stat: %v)", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed job's summary emitted:\n%s", out.String())
	}
	if st, err := cache.Stats(); err != nil || st.Entries != 0 {
		t.Errorf("cache after failed runs = %+v, %v; want empty", st, err)
	}
}

// TestRunnerWithoutOutDirWritesOnlyItsCache checks the daemon's runner:
// with no OutDir a Runner executes, caches and replays the artifact,
// files inside, byte-identically, and creates no file outside its cache,
// neither beside it nor relative to the working directory.
func TestRunnerWithoutOutDirWritesOnlyItsCache(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	j := testJob("nooutdir", &runs)
	cache := NewStore(filepath.Join(dir, "cache"))
	var out1, out2 bytes.Buffer
	r := &Runner{Cache: cache, Env: Env{GraphFingerprint: "g1"}, Stdout: &out1}
	if cached, err := r.Run(context.Background(), j); err != nil || cached || runs != 1 {
		t.Fatalf("first run: cached=%v runs=%d err=%v, want executed once", cached, runs, err)
	}
	key := Key("nooutdir", "g1", j.Fingerprint())
	first, err := os.ReadFile(cache.Path("nooutdir", key))
	if err != nil {
		t.Fatalf("artifact not cached: %v", err)
	}
	r.Stdout = &out2
	if cached, err := r.Run(context.Background(), j); err != nil || !cached || runs != 1 {
		t.Fatalf("second run: cached=%v runs=%d err=%v, want replayed with zero executions", cached, runs, err)
	}
	second, err := os.ReadFile(cache.Path("nooutdir", key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("the replay rewrote the cached envelope")
	}
	if want := "CACHED nooutdir (artifact " + key + " replayed byte-identically)\n" + out1.String(); out2.String() != want {
		t.Errorf("replay printed %q, want %q", out2.String(), want)
	}
	a := cache.Load("nooutdir", "g1", j.Fingerprint())
	if a == nil || len(a.Files) != 1 || a.Files[0].Path != "nooutdir.csv" || string(a.Files[0].Data) != "series,x,y\na,1,2\n" {
		t.Fatalf("cached artifact does not carry the job's file: %+v", a)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel(dir, path); !d.IsDir() && !strings.HasPrefix(rel, "cache"+string(filepath.Separator)) {
			t.Errorf("file %s written outside the cache", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("nooutdir.csv"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("nooutdir.csv in the working directory: %v", err)
	}
}

func TestRunnerNilCacheAlwaysExecutes(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	j := testJob("tableI", &runs)
	r := &Runner{Env: Env{GraphFingerprint: "g1"}, OutDir: dir}
	for i := 0; i < 2; i++ {
		cached, err := r.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatal("nil cache reported a hit")
		}
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 with caching disabled", runs)
	}
}

func TestBuilderMirrorsReportHelpers(t *testing.T) {
	tbl := report.NewTable("T", "A", "B")
	if err := tbl.AddRow("x", "1"); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	if err := b.Table(tbl); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveTable("t.txt", tbl); err != nil {
		t.Fatal(err)
	}
	a := b.Artifact()
	if len(a.Files) != 1 || a.Files[0].Path != "t.txt" {
		t.Fatalf("files = %+v", a.Files)
	}
	// The summary and the saved file render identically.
	if a.Summary != string(a.Files[0].Data) {
		t.Errorf("summary and saved table differ:\n%q\nvs\n%q", a.Summary, a.Files[0].Data)
	}
	dir := t.TempDir()
	if err := report.SaveTable(filepath.Join(dir, "ref.txt"), tbl); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(filepath.Join(dir, "ref.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, a.Files[0].Data) {
		t.Errorf("Builder.SaveTable diverges from report.SaveTable:\n%q\nvs\n%q", ref, a.Files[0].Data)
	}
}
