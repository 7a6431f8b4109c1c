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
// (-max-retries, -retry-base). The artifact cache is the only record of
// finished work, kept per job: a job cut by -timeout, a crash or Ctrl-C
// writes and caches nothing, and a plain rerun replays every finished
// job and runs the cut one again from its start, producing
// bit-identical files.
//
// Usage:
//
//	experiments                 # run everything (about 17 s on 2 vCPUs)
//	experiments -list           # enumerate registered jobs + fingerprints
//	experiments -run tableII    # one experiment
//	experiments -run tableI,figure1  # a comma-separated subset
//	experiments -quick          # reduced sampling, seconds
//	experiments -no-cache       # recompute even on a cache hit
//	experiments -timeout 2m     # bound each job
//	experiments -workers 4      # bound measurement parallelism
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
// The command takes no positional arguments. Timing the measurement
// stack is the repository benchmark's job: bash perfbench/run.sh.
package main

import (
	"context"
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
	run  func(ctx context.Context) error
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
}

func run(args []string) error {
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
		maxRetries  = fs.Int("max-retries", 2, "retries per job after a transient failure (0 = no retries)")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "base delay of the exponential retry backoff")
		incr        = fs.Bool("incremental", false, "route epoch-sweep measurements through the incremental engine (cores decomposed on each epoch's CSR, delta-repaired BFS, warm-started SLEM)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics snapshots over HTTP on this address (e.g. :8080)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h is a successful interaction: usage was printed, exit 0.
			return nil
		}
		return err
	}
	// The flag parser stops at the first non-flag argument, so a stray
	// word would silently drop every flag after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: select experiments with -run (see -list); time the measurement stack with bash perfbench/run.sh", fs.Arg(0))
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

	opts := experiments.Options{
		// One shared dataset cache: the substrate fingerprint generates
		// every registry graph once and the jobs reuse them.
		Cache: &datasets.Cache{},
		Quick: *quick, Seed: *seed, Workers: *workers,
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
	// cache key. Generating it warms the shared dataset cache the jobs
	// draw from.
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
		Env:    jobs.Env{GraphFingerprint: graphFP},
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
// panic recovery, and transient-failure retries. With keepGoing, a
// failed job is recorded and the remaining jobs still run; the failures
// are summarized on w (with the recovered stack for panics) and
// returned as a single error so the process exits nonzero.
// When mc is non-nil, each job's wall time, allocator deltas, attempt
// count, and metrics window are collected.
func runJobs(ctx context.Context, queue []job, rc runnerConfig, mc *metricsCollector, w io.Writer) error {
	var failures []jobFailure
	for _, j := range queue {
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
// When the deadline fires, the runner waits a short grace period for the
// job to return before moving on, so that a cooperative job's late
// output (a summary printed, or files written, just as the deadline
// fired) lands before the next job's instead of inside it. A job that
// returns nil within the grace window finished its work and counts as a
// success.
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
				return nil // the job finished within the grace period
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

// graceFor is how long a deadline-hit job gets to return before the
// runner abandons it: a fifth of the timeout, clamped to [100ms, 2s].
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
