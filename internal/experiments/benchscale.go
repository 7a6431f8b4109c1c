package experiments

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// ScaleKernelEntry is one measurement kernel timed on the mmap-backed
// graph, monolithic versus sharded.
type ScaleKernelEntry struct {
	// Name is the kernel: mixing, expansion, spectral, or kcore.
	Name string `json:"name"`
	// MonoSeconds and ShardedSeconds are single-run wall times on the
	// mapped view directly and on its sharded wrapper.
	MonoSeconds    float64 `json:"mono_seconds"`
	ShardedSeconds float64 `json:"sharded_seconds"`
	// Ratio is MonoSeconds / ShardedSeconds (> 1 means sharding won).
	Ratio float64 `json:"ratio"`
	// Identical reports the two runs' fingerprints agreed bit-for-bit.
	Identical bool `json:"identical"`
	// Fingerprint is the shared FNV-1a digest of the result.
	Fingerprint string `json:"fingerprint"`
}

// ScaleBenchResult is the large-graph substrate baseline cmd/experiments
// bench writes to out/BENCH_scale.json: a graph streamed to TNG2 in
// bounded memory, mmap-loaded, and measured end to end, with the sharded
// engine checked against the monolithic one — on the big graph itself
// and on the 10⁴-node reference the views baseline uses.
type ScaleBenchResult struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	UnixTime   int64  `json:"unix_time"`

	// Nodes/Attach parameterize the streamed BA graph; Edges is measured.
	Nodes  int   `json:"nodes"`
	Attach int   `json:"attach"`
	Edges  int64 `json:"edges"`
	// Shards is the shard count the sharded runs used.
	Shards int `json:"shards"`

	// GenerateSeconds covers the streaming generation (external-sort CSR
	// writer included); SpillRuns/SpilledBytes show it ran out-of-core.
	GenerateSeconds float64 `json:"generate_seconds"`
	SpillRuns       int     `json:"spill_runs"`
	SpilledBytes    int64   `json:"spilled_bytes"`
	// FileBytes is the TNG2 image size; OpenMappedSeconds the zero-copy
	// load time.
	FileBytes         int64   `json:"file_bytes"`
	OpenMappedSeconds float64 `json:"open_mapped_seconds"`
	// PeakRSSBytes is the process high-water mark (VmHWM) after the whole
	// run, 0 where /proc is unavailable.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`

	Entries []ScaleKernelEntry `json:"entries"`
	// ReferenceIdentical reports the mixing and expansion fingerprints
	// agreed between monolithic and sharded runs on the 10⁴-node
	// reference graph.
	ReferenceIdentical bool `json:"reference_identical"`
}

// Identical reports whether every mono/sharded pair — big graph and
// reference — agreed; callers treat false as a failure.
func (r *ScaleBenchResult) Identical() bool {
	for _, e := range r.Entries {
		if !e.Identical {
			return false
		}
	}
	return r.ReferenceIdentical
}

// BenchScale streams a preferential-attachment graph to a TNG2 file in
// bounded memory (10⁵ nodes quick, 10⁶ full), opens it as a zero-copy
// mmap view, and times each measurement kernel on the mapped view
// directly versus through a ShardedGraph wrapper, checking bit-identical
// results. scratch is where the graph image and spill runs go; the image
// is removed before returning.
func BenchScale(ctx context.Context, opts Options, shards int, scratch string) (*ScaleBenchResult, error) {
	opts.fill()
	if shards < 1 {
		shards = 4
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := opts.pick(100_000, 1_000_000)
	const attach = 8

	res := &ScaleBenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
		Nodes:      n,
		Attach:     attach,
		Shards:     shards,
	}

	// Stream the graph to disk through the external-sort CSR writer. A
	// small arc buffer forces spill runs so the committed baseline
	// demonstrates the out-of-core path, not just the in-memory sort.
	es, err := gen.StreamBA(n, attach, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: %w", err)
	}
	path := filepath.Join(scratch, "scale-ba.tng2")
	defer os.Remove(path)
	start := time.Now()
	st, err := func() (graph.CSRStats, error) {
		f, err := os.Create(path)
		if err != nil {
			return graph.CSRStats{}, err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		st, err := gen.StreamCSR(es, bw, graph.CSRWriterConfig{
			TempDir:    scratch,
			BufferArcs: 1 << 20, // 8 MiB buffer: 10⁶-node generation spills
		})
		if err != nil {
			f.Close()
			return graph.CSRStats{}, err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return graph.CSRStats{}, err
		}
		return st, f.Close()
	}()
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: stream: %w", err)
	}
	res.GenerateSeconds = time.Since(start).Seconds()
	res.Edges = st.Edges
	res.SpillRuns = st.Runs
	res.SpilledBytes = st.SpilledBytes
	if fi, err := os.Stat(path); err == nil {
		res.FileBytes = fi.Size()
	}

	start = time.Now()
	mg, err := graph.OpenMapped(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: open mapped: %w", err)
	}
	defer mg.Close()
	res.OpenMappedSeconds = time.Since(start).Seconds()

	sg, err := graph.NewSharded(mg, shards)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: shard: %w", err)
	}

	// Capped kernel configurations: the point is substrate throughput,
	// not full measurements, so walks take a few steps, expansion runs
	// one 64-source batch, and the power iteration is iteration-capped
	// (an unconverged estimate is still bit-reproducible).
	mixingCfg := walk.MixingConfig{
		MaxSteps: 5, Sources: 8, Seed: opts.Seed, Workers: workers,
	}
	expSources, err := expansion.SampledSources(mg, 64, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: sources: %w", err)
	}
	spectralCfg := spectral.Config{
		Tolerance: 1e-8, MaxIterations: 25, Seed: opts.Seed, Workers: workers,
	}

	runs := []struct {
		name string
		run  func(v graph.View) (string, error)
	}{
		{"mixing", func(v graph.View) (string, error) {
			mr, err := walk.MeasureMixing(ctx, v, mixingCfg)
			if err != nil {
				return "", err
			}
			return jobs.MixingFingerprint(mr), nil
		}},
		{"expansion", func(v graph.View) (string, error) {
			er, err := expansion.Measure(ctx, v, expansion.Config{
				Sources: expSources, Workers: workers,
			})
			if err != nil {
				return "", err
			}
			return jobs.ExpansionFingerprint(er), nil
		}},
		{"spectral", func(v graph.View) (string, error) {
			sr, err := spectral.SLEMContext(ctx, v, spectralCfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%x/%d", sr.SLEM, sr.Iterations), nil
		}},
		{"kcore", func(v graph.View) (string, error) {
			dec, err := kcore.Decompose(v)
			if err != nil {
				return "", err
			}
			return jobs.CorenessFingerprint(dec), nil
		}},
	}
	for _, k := range runs {
		e := ScaleKernelEntry{Name: k.name}
		start = time.Now()
		monoFP, err := k.run(mg)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench scale: %s mono: %w", k.name, err)
		}
		e.MonoSeconds = time.Since(start).Seconds()
		start = time.Now()
		shardFP, err := k.run(sg)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench scale: %s sharded: %w", k.name, err)
		}
		e.ShardedSeconds = time.Since(start).Seconds()
		if e.ShardedSeconds > 0 {
			e.Ratio = e.MonoSeconds / e.ShardedSeconds
		}
		e.Identical = monoFP == shardFP
		e.Fingerprint = shardFP
		res.Entries = append(res.Entries, e)
	}

	// Reference identity on the views baseline's 10⁴-node graph: the
	// same check CI's equivalence suites run, recorded in the artifact.
	ref, err := benchGraph()
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: reference: %w", err)
	}
	refSharded, err := graph.NewSharded(ref, shards)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: reference: %w", err)
	}
	res.ReferenceIdentical = true
	refMix := walk.MixingConfig{MaxSteps: 10, Sources: 16, Seed: opts.Seed, Workers: workers}
	refSources, err := expansion.SampledSources(ref, 128, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: bench scale: reference: %w", err)
	}
	refChecks := []func(v graph.View) (string, error){
		func(v graph.View) (string, error) {
			mr, err := walk.MeasureMixing(ctx, v, refMix)
			if err != nil {
				return "", err
			}
			return jobs.MixingFingerprint(mr), nil
		},
		func(v graph.View) (string, error) {
			er, err := expansion.Measure(ctx, v, expansion.Config{
				Sources: refSources, Workers: workers,
			})
			if err != nil {
				return "", err
			}
			return jobs.ExpansionFingerprint(er), nil
		},
	}
	for _, check := range refChecks {
		a, err := check(ref)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench scale: reference: %w", err)
		}
		b, err := check(refSharded)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench scale: reference: %w", err)
		}
		if a != b {
			res.ReferenceIdentical = false
		}
	}

	res.PeakRSSBytes = peakRSSBytes()
	return res, nil
}

// peakRSSBytes reads the process memory high-water mark (VmHWM) from
// /proc/self/status, returning 0 where that interface does not exist.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
