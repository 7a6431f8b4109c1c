// Command experiments regenerates every table and figure of the paper's
// evaluation section from the synthetic dataset registry, writing ASCII
// tables and CSV series under -out (default ./out).
//
// Every experiment is a typed job registered in internal/experiments'
// jobs.Registry; this command is a thin shell over it. -list enumerates
// the registered jobs with their config fingerprints; -run selects a
// comma-separated subset (unknown names fail with the nearest valid
// name). Completed results are content-addressed into <out>/cache by
// (graph fingerprint, config fingerprint, schema version): a rerun with
// an unchanged substrate and configuration replays the artifact
// byte-identically without recomputing (disable with -no-cache).
//
// The runner is fault tolerant: a job that fails, panics, or exceeds
// its -timeout is reported as a failed job while the remaining jobs
// still run (disable with -keep-going=false), and any failure makes the
// process exit nonzero with a summary table (panic stacks included).
// Transient failures are retried with seeded-jitter exponential backoff
// (-max-retries, -retry-base); every job checkpoints its completion —
// and, with -best-effort, its partial progress — under <out>/ckpt,
// keyed by the canonical graph-substrate fingerprint, so a crashed or
// killed run continues where it left off when rerun with -resume,
// producing bit-identical artifacts.
//
// Usage:
//
//	experiments                 # run everything (minutes)
//	experiments -list           # enumerate registered jobs + fingerprints
//	experiments -run tableII    # one experiment
//	experiments -run tableI,figure1  # a comma-separated subset
//	experiments -quick          # reduced sampling, seconds
//	experiments -no-cache       # recompute even on a cache hit
//	experiments -timeout 2m     # bound each job
//	experiments -workers 4      # bound measurement parallelism
//	experiments -best-effort    # salvage partial results at the deadline
//	experiments -resume         # skip/continue from out/ckpt checkpoints
//	experiments -max-retries 3 -retry-base 200ms  # transient-failure retries
//	experiments -run epochs -incremental  # epoch sweep via internal/incremental
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof  # profile any run
//	experiments -metrics-addr :8080  # live metrics snapshots over HTTP
//
// Every run writes out/METRICS.json: per-job wall time, allocation and
// heap figures, and the observability counters/timers/spans the job
// produced (see internal/obs). Cache hits surface there as
// jobs.cache.hits with zero jobs.run.executed in the job's window.
//
//	experiments bench           # time the parallel fan-out (workers=1 vs N,
//	                            # out/BENCH_parallel.json), the zero-copy
//	                            # views (rebuild-per-epoch vs MaskedView,
//	                            # out/BENCH_views.json), and the incremental
//	                            # epoch sweep (full recompute vs maintainers,
//	                            # out/BENCH_incremental.json), and the scale
//	                            # substrate (streamed TNG2 + mmap, monolithic
//	                            # vs sharded, out/BENCH_scale.json); exits
//	                            # nonzero if any variant pair diverges
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/experiments"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/resilience"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// job is one experiment queued for the fault-tolerant runner: run
// receives a context already bounded by the per-job timeout and must
// return rather than os.Exit on failure.
type job struct {
	name string
	// fp ties the job's done checkpoint to both the graph substrate and
	// the job configuration; a run over different datasets or knobs never
	// resumes this one's checkpoint. Empty matches any checkpoint (legacy
	// tests only).
	fp  string
	run func(ctx context.Context) error
}

// jobFailure records one failed job for the summary.
type jobFailure struct {
	name     string
	err      error
	class    resilience.Class
	attempts int
}

// runnerConfig bundles the fault-tolerance knobs runJobs runs under.
type runnerConfig struct {
	timeout   time.Duration
	keepGoing bool
	// policy retries transient job failures; MaxAttempts <= 1 disables
	// retrying.
	policy resilience.Policy
	// store persists per-job done markers (and receives the experiments'
	// own per-dataset checkpoints via experiments.Options.Ckpt); nil
	// disables job checkpointing.
	store *resilience.Store
	// resume skips jobs whose done checkpoint matches the job's fp.
	resume bool
}

func run(args []string) error {
	bench := len(args) > 0 && args[0] == "bench"
	if bench {
		args = args[1:]
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only        = fs.String("run", "", "comma-separated experiments to run (default: all; see -list): tableI | figure1 | figure2 | tableII | figure3 | figure4 | figure5 | cross | dynamic | modulated | attacker | betweenness | sweep | churn | epochs")
		list        = fs.Bool("list", false, "list the registered experiments with their config fingerprints and exit")
		quick       = fs.Bool("quick", false, "reduced sampling for a fast smoke run")
		seed        = fs.Int64("seed", 1, "measurement seed")
		out         = fs.String("out", "out", "output directory")
		noCache     = fs.Bool("no-cache", false, "recompute jobs even when a cached artifact matches; never read or write <out>/cache")
		cacheMax    = fs.Int64("cache-max-bytes", 0, "cap <out>/cache at this many bytes, evicting oldest artifacts first (0 = unbounded)")
		timeout     = fs.Duration("timeout", 0, "per-job timeout (0 = none)")
		keepGoing   = fs.Bool("keep-going", true, "run remaining jobs after a failure and summarize at the end")
		workers     = fs.Int("workers", 0, "measurement parallelism; 0 = GOMAXPROCS")
		repeats     = fs.Int("bench-repeats", 3, "bench mode: timed repetitions per variant (best kept)")
		resume      = fs.Bool("resume", false, "skip jobs and datasets already completed in -ckpt-dir; continue interrupted ones")
		maxRetries  = fs.Int("max-retries", 2, "retries per job after a transient failure (0 = no retries)")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "base delay of the exponential retry backoff")
		bestEffort  = fs.Bool("best-effort", false, "return partial results with coverage annotations when a job hits its -timeout")
		incr        = fs.Bool("incremental", false, "route epoch-sweep measurements through the incremental maintainers (delta-repaired cores and BFS, warm-started SLEM)")
		ckptDir     = fs.String("ckpt-dir", "", "checkpoint directory (default <out>/ckpt)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file (any mode)")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file at exit (any mode)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics snapshots over HTTP on this address (e.g. :8080)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h is a successful interaction: usage was printed, exit 0.
			return nil
		}
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	if *ckptDir == "" {
		*ckptDir = filepath.Join(*out, "ckpt")
	}
	store := resilience.NewStore(*ckptDir)
	opts := experiments.Options{
		// One shared dataset cache: the substrate fingerprint generates
		// every registry graph once and the jobs reuse them.
		Cache: &datasets.Cache{},
		Quick: *quick, Seed: *seed, Workers: *workers,
		BestEffort: *bestEffort, Ckpt: store, Resume: *resume,
		Incremental: *incr,
	}

	reg, err := experiments.Jobs(opts)
	if err != nil {
		return err
	}
	if *list {
		for _, j := range reg.Jobs() {
			fmt.Printf("%-12s %s\n", j.Name(), j.Fingerprint())
		}
		return nil
	}

	obsReg := obs.Default()
	if *metricsAddr != "" {
		srv, addr, err := obsReg.Serve(*metricsAddr)
		if err != nil {
			return err
		}
		// Drain, don't Close: a scraper reading /metrics at process exit
		// gets its response completed instead of a severed connection.
		defer func() {
			if derr := obs.DrainServer(srv, 2*time.Second); derr != nil {
				fmt.Fprintln(os.Stderr, "experiments:", derr)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: metrics at http://%s/metrics\n", addr)
	}
	mc := newMetricsCollector(obsReg, *quick, *seed, *workers)

	if bench {
		before := mc.beforeJob()
		start := time.Now()
		err := runBench(context.Background(), opts, *out, *workers, *repeats, os.Stdout)
		mc.afterJob("bench", err, time.Since(start), before, 1)
		if path, werr := mc.write(*out); werr != nil {
			if err == nil {
				err = werr
			}
		} else {
			fmt.Printf("wrote %s\n", path)
		}
		return err
	}

	// Resolve the selection through the registry before doing any work,
	// so a typo fails instantly with the nearest valid name.
	selected := reg.Jobs()
	if *only != "" {
		selected = selected[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			j, err := reg.Lookup(name)
			if err != nil {
				return err
			}
			selected = append(selected, j)
		}
		if len(selected) == 0 {
			return fmt.Errorf("no experiments selected by -run %q", *only)
		}
	}

	// The canonical substrate digest: the graph half of every artifact
	// cache key and job checkpoint fingerprint. Generating it warms the
	// shared dataset cache the jobs draw from.
	graphFP, err := experiments.SubstrateFingerprint(opts)
	if err != nil {
		return err
	}
	var cache *jobs.Store
	if !*noCache {
		cache = jobs.NewStore(filepath.Join(*out, "cache"))
		if *cacheMax > 0 {
			cache.SetMaxBytes(*cacheMax)
		}
	}
	runner := &jobs.Runner{
		Cache:  cache,
		Env:    jobs.Env{GraphFingerprint: graphFP, Ckpt: store, Resume: *resume},
		OutDir: *out,
		Stdout: os.Stdout,
	}
	// Substrate generation is setup, not the first job's work.
	mc.rebase()

	queue := make([]job, 0, len(selected))
	for _, jj := range selected {
		jj := jj
		queue = append(queue, job{
			name: jj.Name(),
			fp:   resilience.Fingerprint("job", graphFP, jj.Fingerprint()),
			run: func(ctx context.Context) error {
				_, err := runner.Run(ctx, jj)
				return err
			},
		})
	}
	rc := runnerConfig{
		timeout:   *timeout,
		keepGoing: *keepGoing,
		policy: resilience.Policy{
			MaxAttempts: *maxRetries + 1,
			BaseDelay:   *retryBase,
			Jitter:      0.25,
			Seed:        *seed,
		},
		store:  store,
		resume: *resume,
	}
	err = runJobs(context.Background(), queue, rc, mc, os.Stdout)
	if path, werr := mc.write(*out); werr != nil {
		if err == nil {
			err = werr
		}
	} else {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}

// runJobs executes the queued jobs sequentially with per-job timeout,
// panic recovery, transient-failure retries, and checkpoint-based
// resume (each job's done marker is keyed by its own fp). With
// keepGoing, a failed job is recorded and the remaining jobs still run;
// the failures are summarized on w (with the recovered stack for
// panics) and returned as a single error so the process exits nonzero.
// When mc is non-nil, each job's wall time, allocator deltas, attempt
// count, and metrics window are collected.
func runJobs(ctx context.Context, queue []job, rc runnerConfig, mc *metricsCollector, w io.Writer) error {
	var failures []jobFailure
	for _, j := range queue {
		if rc.resume && rc.store != nil {
			c, err := rc.store.Load("job-"+j.name, j.fp)
			if err != nil {
				return err
			}
			if c != nil && c.Status == resilience.StatusDone {
				fmt.Fprintf(w, "== %s ==\nSKIP %s (done checkpoint from an earlier run)\n\n", j.name, j.name)
				if mc != nil {
					mc.skipJob(j.name)
				}
				continue
			}
		}
		start := time.Now()
		fmt.Fprintf(w, "== %s ==\n", j.name)
		var before runtime.MemStats
		if mc != nil {
			before = mc.beforeJob()
		}
		pol := rc.policy
		pol.OnRetry = func(attempt int, err error, class resilience.Class, backoff time.Duration) {
			fmt.Fprintf(w, "RETRY %s (attempt %d failed %s: %v; next in %v)\n",
				j.name, attempt, class, err, backoff.Round(time.Millisecond))
		}
		outcome, err := pol.Run(ctx, func(ctx context.Context, _ int) error {
			return runOne(ctx, j, rc.timeout)
		})
		if mc != nil {
			mc.afterJob(j.name, err, time.Since(start), before, outcome.Attempts)
		}
		if err != nil {
			failures = append(failures, jobFailure{name: j.name, err: err, class: outcome.Class, attempts: outcome.Attempts})
			fmt.Fprintf(w, "FAILED %s after %v: %v\n\n", j.name, time.Since(start).Round(time.Millisecond), err)
			if !rc.keepGoing {
				break
			}
			continue
		}
		if rc.store != nil {
			c := &resilience.Checkpoint{Job: "job-" + j.name, Fingerprint: j.fp, Status: resilience.StatusDone, Attempts: outcome.Attempts}
			if err := rc.store.Save(c); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "(%s in %v)\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}
	if len(failures) == 0 {
		return nil
	}
	t := report.NewTable(fmt.Sprintf("%d of %d jobs failed", len(failures), len(queue)),
		"Job", "Class", "Attempts", "Error")
	for _, f := range failures {
		if err := t.AddRow(f.name, f.class.String(), fmt.Sprintf("%d", f.attempts), f.err.Error()); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	// Panic stacks are too wide for a table cell; print them after the
	// summary so the failing frame is on record.
	for _, f := range failures {
		if pe, ok := resilience.AsPanic(f.err); ok {
			fmt.Fprintf(w, "\npanic stack for %s:\n%s", f.name, pe.Stack)
		}
	}
	return fmt.Errorf("%d job(s) failed (first: %s: %v)", len(failures), failures[0].name, failures[0].err)
}

// runOne runs a single job under its timeout, converting a panic into a
// reported failure carrying the recovered stack (resilience.PanicError,
// classified transient so the retry policy may re-run it). The job runs
// in its own goroutine so a job that ignores its context cannot stall
// the runner past the deadline; such a goroutine is abandoned (it holds
// no locks the runner needs) and the leak lasts at most until process
// exit. The goroutine carries the "experiment" pprof label so CPU
// profile samples attribute to the job.
//
// When the deadline fires, the runner grants a short grace period for a
// cooperative best-effort job to salvage its partial results: a job that
// returns nil within the grace window counts as a success.
func runOne(parent context.Context, j job, timeout time.Duration) (err error) {
	ctx := parent
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, timeout)
		defer cancel()
	}
	done := make(chan error, 1)
	jctx := obs.WithExperiment(ctx, j.name)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- &resilience.PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		pprof.Do(jctx, pprof.Labels(), func(jctx context.Context) {
			done <- j.run(jctx)
		})
	}()
	select {
	case err = <-done:
		return err
	case <-ctx.Done():
		select {
		case err = <-done:
			if err == nil {
				return nil // best-effort salvage beat the grace period
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("timed out after %v: %w", timeout, err)
			}
			return err
		case <-time.After(graceFor(timeout)):
			return fmt.Errorf("timed out after %v: %w", timeout, ctx.Err())
		}
	}
}

// graceFor is how long a deadline-hit job gets to return its salvaged
// partial result before the runner abandons it: a fifth of the timeout,
// clamped to [100ms, 2s].
func graceFor(timeout time.Duration) time.Duration {
	g := timeout / 5
	if g < 100*time.Millisecond {
		g = 100 * time.Millisecond
	}
	if g > 2*time.Second {
		g = 2 * time.Second
	}
	return g
}

// runBench times the parallel measurement kernels at workers=1 vs N and
// writes the trajectory point to out/BENCH_parallel.json.
func runBench(ctx context.Context, opts experiments.Options, out string, workers, repeats int, w io.Writer) error {
	res, err := experiments.Bench(ctx, opts, workers, repeats)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("bench: workers=1 vs %d (GOMAXPROCS=%d, best of %d)", res.Workers, res.GOMAXPROCS, repeats),
		"Kernel", "Dataset", "workers=1 (s)", fmt.Sprintf("workers=%d (s)", res.Workers), "Speedup", "Identical")
	for _, e := range res.Entries {
		if err := t.AddRow(e.Name, e.Dataset,
			report.Float(e.SequentialSeconds, 4), report.Float(e.ParallelSeconds, 4),
			report.Float(e.Speedup, 2), fmt.Sprintf("%v", e.Identical)); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "BENCH_parallel.json")
	if err := resilience.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)

	vres, err := experiments.BenchViews(ctx, opts, repeats)
	if err != nil {
		return err
	}
	vt := report.NewTable(
		fmt.Sprintf("bench: rebuild-per-epoch vs zero-copy views (best of %d)", repeats),
		"Pipeline", "Dataset", "Epochs", "Rebuild (s)", "View (s)", "Speedup", "Identical")
	for _, e := range vres.Entries {
		if err := vt.AddRow(e.Name, e.Dataset, report.Int(e.Epochs),
			report.Float(e.RebuildSeconds, 4), report.Float(e.ViewSeconds, 4),
			report.Float(e.Speedup, 2), fmt.Sprintf("%v", e.Identical)); err != nil {
			return err
		}
	}
	if err := vt.Render(w); err != nil {
		return err
	}
	vdata, err := json.MarshalIndent(vres, "", "  ")
	if err != nil {
		return err
	}
	vpath := filepath.Join(out, "BENCH_views.json")
	if err := resilience.WriteFileAtomic(vpath, append(vdata, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", vpath)

	ires, err := experiments.BenchIncremental(ctx, opts, repeats)
	if err != nil {
		return err
	}
	it := report.NewTable(
		fmt.Sprintf("bench: full-per-epoch vs incremental maintainers (best of %d)", repeats),
		"Pipeline", "Dataset", "Epochs", "Sources", "Full (s)", "Incremental (s)", "Speedup", "Identical", "Max SLEM diff")
	for _, e := range ires.Entries {
		if err := it.AddRow(e.Name, e.Dataset, report.Int(e.Epochs), report.Int(e.Sources),
			report.Float(e.FullSeconds, 4), report.Float(e.IncrementalSeconds, 4),
			report.Float(e.Speedup, 2), fmt.Sprintf("%v", e.Identical),
			fmt.Sprintf("%.2g", e.MaxSLEMDiff)); err != nil {
			return err
		}
	}
	if err := it.Render(w); err != nil {
		return err
	}
	idata, err := json.MarshalIndent(ires, "", "  ")
	if err != nil {
		return err
	}
	ipath := filepath.Join(out, "BENCH_incremental.json")
	if err := resilience.WriteFileAtomic(ipath, append(idata, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", ipath)

	sres, err := experiments.BenchScale(ctx, opts, 4, out)
	if err != nil {
		return err
	}
	stt := report.NewTable(
		fmt.Sprintf("bench: mmap-backed substrate, monolithic vs %d shards (n=%d, m=%d)",
			sres.Shards, sres.Nodes, sres.Edges),
		"Kernel", "Mono (s)", "Sharded (s)", "Ratio", "Identical")
	for _, e := range sres.Entries {
		if err := stt.AddRow(e.Name,
			report.Float(e.MonoSeconds, 4), report.Float(e.ShardedSeconds, 4),
			report.Float(e.Ratio, 2), fmt.Sprintf("%v", e.Identical)); err != nil {
			return err
		}
	}
	stt.AddNote(fmt.Sprintf("generated in %.2fs (%d spill runs), mapped in %.4fs, file %d bytes, peak RSS %d MiB",
		sres.GenerateSeconds, sres.SpillRuns, sres.OpenMappedSeconds, sres.FileBytes, sres.PeakRSSBytes>>20))
	if err := stt.Render(w); err != nil {
		return err
	}
	sdata, err := json.MarshalIndent(sres, "", "  ")
	if err != nil {
		return err
	}
	spath := filepath.Join(out, "BENCH_scale.json")
	if err := resilience.WriteFileAtomic(spath, append(sdata, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", spath)

	if !vres.Identical() {
		return fmt.Errorf("bench: view and rebuild result fingerprints diverged (see %s)", vpath)
	}
	if !ires.Equivalent() {
		return fmt.Errorf("bench: incremental and full results diverged (see %s)", ipath)
	}
	if !sres.Identical() {
		return fmt.Errorf("bench: sharded and monolithic results diverged (see %s)", spath)
	}
	return nil
}
