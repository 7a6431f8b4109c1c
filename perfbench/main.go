// Command perfbench is the repository's benchmark: it runs one workload
// of the trustnet measurement service end to end and prints its metrics.
//
// The paper, large and replay workloads start the real cmd/trustnetd as
// a child process on loopback and load it with two closed-loop clients;
// the epochs workload drives internal/incremental in process. Every op's
// outputs are checked. With -trace 1 the run traces alternate pairs of
// ops, then calls into each layer in process and checks the results,
// and prints per-layer metrics.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --report results/ [--against results-b/]
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 when
// every op and check passed, 1 when an output check failed, and 2 when
// the run could not be made.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workloadRates is each workload's op budget per second of -seconds.
// A run does a fixed amount of work, rate × seconds ops, rather than as
// many ops as fit in the time: equal work makes the counters repeat for
// a seed and makes peak RSS comparable (the daemon's memory grows with
// the jobs it has seen). The rates make one run last about -seconds on
// a 2-core x86-64 host.
var workloadRates = map[string]float64{
	"paper":  11,
	"large":  2.4,
	"replay": 1000,
	"epochs": 6.5,
}

// opCount is the number of timed ops for a workload and run length:
// whole passes over the stand-ins on paper, an even count (both graph
// families equally) on large, and enough epochs on epochs that its p90
// has ten samples beyond it.
func opCount(workload string, seconds int) int {
	n := int(math.Round(workloadRates[workload] * float64(seconds)))
	switch workload {
	case "paper":
		n = max(15, (n+14)/15*15)
	case "large":
		n = max(2, n+n%2)
	case "epochs":
		n = max(100, n)
	}
	return max(1, n)
}

// benchEnv is one run's settings.
type benchEnv struct {
	root, daemonBin, stateRoot string
	workload                   string
	seed                       int64
	seconds                    int
	trace                      bool
	ops                        int
	steal                      *stealClock // time stolen from the run so far
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: paper, large, replay or epochs")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "run length; sets the op budget")
		trace    = flag.Int("trace", 0, "1 traces the run and prints per-layer metrics")
		root     = flag.String("root", ".", "repository checkout (state goes under <root>/.bench_build)")
		daemon   = flag.String("daemon", "", "trustnetd binary built from the checkout")
		report   = flag.String("report", "", "steadiness report over the run outputs in this directory")
		against  = flag.String("against", "", "with -report: compare against the run outputs in this directory")
	)
	flag.Parse()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec, err := loadSpec(absRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *report != "" {
		return steadiness(os.Stdout, spec, *report, *against)
	}
	if _, ok := workloadRates[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload paper|large|replay|epochs, -seconds >= 1 and -trace 0|1")
		return 2
	}
	if *workload != "epochs" && *daemon == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon is required (run through perfbench/run.sh)")
		return 2
	}
	e := &benchEnv{
		root: absRoot, daemonBin: *daemon, workload: *workload, seed: *seed,
		seconds: *seconds, trace: *trace == 1, ops: opCount(*workload, *seconds),
	}
	stateRoot := filepath.Join(absRoot, ".bench_build", "state")
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if e.stateRoot, err = os.MkdirTemp(stateRoot, fmt.Sprintf("%s-%d-", e.workload, e.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(e.stateRoot)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e.steal = startStealClock(stealPeriod)
	defer e.steal.close()
	printEnv(e)
	res, err := measure(ctx, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return emit(e, spec, res)
}

// outcome is a run's result, workload-independent.
type outcome struct {
	setups []setupTime
	win    windowStats
	ops    tally // every op of the window and every result check
	trace  *traceData
}

// measure runs the workload.
func measure(ctx context.Context, e *benchEnv) (*outcome, error) {
	o := &outcome{}
	var spans []spanRecord
	var extra map[string][]float64
	var queueWaits []float64
	if e.workload == "epochs" {
		r, err := runEpochs(ctx, e)
		if err != nil {
			return nil, err
		}
		o.setups, o.win, spans, extra = r.setups, r.win, r.spans, r.extra
		o.ops.add(r.checks)
	} else {
		var w serviceWorkload
		switch e.workload {
		case "paper":
			w = &paperWorkload{seed: e.seed, n: e.ops}
		case "large":
			w = &largeWorkload{seed: e.seed, n: e.ops}
		case "replay":
			w = &replayWorkload{seed: e.seed, n: e.ops}
		}
		r, err := runService(ctx, e, w)
		if err != nil {
			return nil, err
		}
		o.setups, o.win, spans, extra, queueWaits = r.setups, r.win, r.spans, r.extra, r.queueWaits
		o.ops.add(r.checks)
	}
	o.ops.add(o.win.tally)
	if e.trace {
		var tl, ul []float64
		for i, l := range o.win.lat {
			if tracedOp(i) {
				tl = append(tl, l)
			} else {
				ul = append(ul, l)
			}
		}
		o.trace = &traceData{spans: spans, extra: extra, queueWaits: queueWaits,
			counters: o.win.counters, tracedLat: mean(tl), untracedLat: mean(ul)}
	}
	return o, nil
}

// envRecord is the first line of a run's output: what ran, where.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Ops        int    `json:"ops"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	StateFS    string `json:"state_fs"`
}

// printEnv prints the run's environment record.
func printEnv(e *benchEnv) {
	rec := envRecord{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Ops: e.ops, Clients: clients,
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commitOf(e.root), StateFS: fsType(e.stateRoot),
	}
	if e.trace {
		rec.Trace = 1
	}
	if e.workload == "epochs" {
		rec.Clients = 1
	}
	b, _ := json.Marshal(rec)
	fmt.Printf("env %s\n", b)
}

// commitOf returns the checkout's git commit, or "unknown" when the
// checkout is not a git work tree. The search stops at root, so a
// checkout inside some other repository does not report that one's.
func commitOf(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues is every end-to-end metric an untraced run can report,
// by name; setup is setup_s.
func endToEndValues(setup float64, w windowStats) map[string]float64 {
	return map[string]float64{
		"setup_s":      setup,
		"ops_per_s":    w.opsPerS(),
		"cpu_s_per_op": w.cpuSPerOp(),
		"peak_rss_mb":  w.rssMB,
	}
}

// emit prints the run's metrics and the result line, whose metrics are
// the ones spec declares, and returns the exit code.
func emit(e *benchEnv, spec *benchSpec, o *outcome) int {
	w := o.win
	var setups, rawSetups []float64
	for _, st := range o.setups {
		setups = append(setups, st.unstolen)
		rawSetups = append(rawSetups, st.raw)
	}
	setup := median(setups)
	fmt.Printf("metric setup_s %.6f s (median of %d steal-corrected set-ups: %s; wall %s)\n", setup, len(setups), joinFloats(setups), joinFloats(rawSetups))
	fmt.Printf("metric ops_per_s %.6f 1/s (over %d steal-corrected sub-windows; uncorrected %.6f; %d ops in %.3f s)\n",
		w.opsPerS(), len(w.rates), w.wallOpsPerS(), w.ops, w.elapsed.Seconds())
	fmt.Printf("metric cpu_s_per_op %.6f s (over %d sub-windows; %.3f s CPU of the %s in all)\n", w.cpuSPerOp(), len(w.cpuPerOp), w.cpu.Seconds(), cpuOwner(e))
	fmt.Printf("metric peak_rss_mb %.3f MB (VmHWM of the %s)\n", w.rssMB, cpuOwner(e))
	fmt.Printf("host steal: %.3f s of the %.3f s window lost to steal\n", w.stolen.Seconds(), w.elapsed.Seconds())
	fmt.Printf("sub-windows: ops/s %s; wall ops/s %s; CPU s/op %s\n", joinFloats(w.rates), joinFloats(w.rawRates), joinFloats(w.cpuPerOp))
	fmt.Printf("metric fail_frac %.6f ratio (%d of %d ops and checks failed)\n", o.ops.failFrac(), o.ops.failed, o.ops.attempted)
	if e.workload == "paper" || e.workload == "large" {
		fmt.Printf("metric op_p50_s, op_p90_s not reported: %s ops mix graphs of different cost, so their latency is multimodal (per-kind times are in the trace)\n", e.workload)
	} else {
		for _, p := range []struct {
			name string
			q    float64
		}{{"op_p50_s", 0.5}, {"op_p90_s", 0.9}} {
			v, beyond, ok := percentile(w.lat, p.q)
			if ok {
				fmt.Printf("metric %s %.6f s (n=%d, %d beyond)\n", p.name, v, len(w.lat), beyond)
			} else {
				fmt.Printf("metric %s not reported: %d of %d samples beyond it, need %d\n", p.name, beyond, len(w.lat), minBeyond)
			}
		}
	}
	for _, msg := range o.ops.first {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}

	res := resultLine{Correct: o.ops.failed == 0, Attempted: o.ops.attempted, Failed: o.ops.failed,
		Metrics: make(map[string]metricValue)}
	vals, declared := endToEndValues(setup, w), spec.EndToEnd
	if o.trace != nil {
		vals, declared = layerValues(*o.trace), spec.PerLayer
		printLayerTable(os.Stdout, e.workload, vals)
		counts, _ := json.Marshal(countsOf(e.workload, o.trace.counters)) // a map of integers always marshals
		fmt.Printf("counts %s\n", counts)
		if path, err := saveTrace(e, o.trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		} else {
			fmt.Printf("trace spans written to %s\n", path)
		}
	}
	for _, m := range declared {
		val, ok := vals[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json metric %s was not measured on %s\n", m.Name, e.workload)
			return 2
		}
		res.Metrics[m.Name] = metricValue{val, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuOwner names the process whose CPU and memory a workload reports.
func cpuOwner(e *benchEnv) string {
	if e.workload == "epochs" {
		return "benchmark process"
	}
	return "trustnetd child"
}

// joinFloats renders xs for a diagnostic line.
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ", ")
}

// saveTrace writes the traced run's spans under .bench_build/traces.
func saveTrace(e *benchEnv, t *traceData) (string, error) {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
	if err := writeTrace(path, t.spans, summarize(t.spans)); err != nil {
		return "", err
	}
	return path, nil
}
