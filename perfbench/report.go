package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one run's output as the steadiness report reads it.
type runRecord struct {
	env    envRecord
	counts map[string]int64 // window-diffed counters of a traced run
	res    resultLine
}

// parseRun reads one run's captured standard output: its env line, the
// counts line of a traced run, and its last line, the result.
func parseRun(data []byte) (runRecord, error) {
	var rec runRecord
	var last []byte
	haveEnv := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if rest, ok := bytes.CutPrefix(line, []byte("env ")); ok {
			if err := json.Unmarshal(rest, &rec.env); err != nil {
				return rec, fmt.Errorf("env line: %w", err)
			}
			haveEnv = true
		}
		if rest, ok := bytes.CutPrefix(line, []byte("counts ")); ok {
			if err := json.Unmarshal(rest, &rec.counts); err != nil {
				return rec, fmt.Errorf("counts line: %w", err)
			}
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	if !haveEnv {
		return rec, fmt.Errorf("no env line")
	}
	if err := json.Unmarshal(last, &rec.res); err != nil || rec.res.Metrics == nil {
		return rec, fmt.Errorf("last line is not a result")
	}
	return rec, nil
}

// loadRuns reads every regular file in dir that holds one run's output
// (an env line and a result line), skipping other files with a note on
// standard error.
func loadRuns(dir string) ([]runRecord, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runRecord
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		rec, err := parseRun(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: skipping %s: %v\n", ent.Name(), err)
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// series groups metric values by (workload, trace mode, metric).
type seriesKey struct {
	workload string
	trace    int
	metric   string
}

// collect groups the runs' metric values.
func collect(runs []runRecord) map[seriesKey][]float64 {
	out := make(map[seriesKey][]float64)
	for _, r := range runs {
		for name, m := range r.res.Metrics {
			k := seriesKey{r.env.Workload, r.env.Trace, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// spread is the quartile distance as a fraction of the median.
func spread(xs []float64) (med, q1, q3, frac float64, ok bool) {
	q1, q3, ok = quartiles(xs)
	if !ok {
		return 0, 0, 0, 0, false
	}
	med = median(xs)
	if med == 0 {
		return med, q1, q3, 0, false
	}
	return med, q1, q3, (q3 - q1) / math.Abs(med), true
}

// steadiness prints, for every (workload, metric) of the runs in dir,
// the median, quartiles and quartile spread. It fails any declared
// end-to-end metric, setup_s included, whose spread exceeds its bound,
// notes the ones above a third of it, and flags counts that differ
// between traced runs of one seed. With against set it also compares
// the medians of the two sets against the bounds. It returns 1 when a
// check fails.
func steadiness(w io.Writer, spec *benchSpec, dir, against string) int {
	runs, err := loadRuns(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bad := false
	bounds := make(map[string]float64)
	better := make(map[string]string)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		better[m.Name] = m.Better
	}
	series := collect(runs)
	keys := make([]seriesKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-8s %-5s %-34s %5s %14s %14s %14s %8s  %s\n", "workload", "trace", "metric", "runs", "median", "q1", "q3", "spread", "verdict")
	for _, k := range keys {
		xs := series[k]
		med, q1, q3, frac, ok := spread(xs)
		verdict := ""
		if b, declared := bounds[k.metric]; declared && k.trace == 0 {
			switch {
			case !ok:
				verdict = "too few runs"
			case frac <= b/3:
				verdict = fmt.Sprintf("steady (< bound/3 = %.3f)", b/3)
			case frac <= b:
				verdict = fmt.Sprintf("within bound %.2f, above bound/3", b)
			default:
				verdict = fmt.Sprintf("TOO NOISY (bound %.2f)", b)
				bad = true
			}
		}
		fmt.Fprintf(w, "%-8s %-5d %-34s %5d %14.6g %14.6g %14.6g %8.4f  %s\n", k.workload, k.trace, k.metric, len(xs), med, q1, q3, frac, verdict)
	}
	if flags := countFlags(runs); len(flags) > 0 {
		bad = true
		for _, f := range flags {
			fmt.Fprintln(w, "FLAG", f)
		}
	}
	if against != "" {
		other, err := loadRuns(against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintf(w, "\ncomparison: %s (A) vs %s (B)\n", dir, against)
		theirs := collect(other)
		for _, k := range keys {
			b, declared := bounds[k.metric]
			if !declared || k.trace != 0 {
				continue
			}
			ys, ok := theirs[k]
			if !ok {
				fmt.Fprintf(w, "%-8s %-14s missing in B\n", k.workload, k.metric)
				bad = true
				continue
			}
			ma, mb := median(series[k]), median(ys)
			worse := (mb - ma) / ma
			if better[k.metric] == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "agree"
			if worse > b {
				verdict = "B WORSE BEYOND BOUND"
				bad = true
			}
			fmt.Fprintf(w, "%-8s %-14s A %12.6g  B %12.6g  B worse by %+.4f (bound %.2f)  %s\n", k.workload, k.metric, ma, mb, worse, b, verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// countFlags lists every window-diffed counter whose value differs
// between two traced runs of the same workload and seed.
func countFlags(runs []runRecord) []string {
	type key struct {
		workload string
		seed     int64
		metric   string
	}
	seen := make(map[key]int64)
	var flags []string
	for _, r := range runs {
		if r.env.Trace != 1 {
			continue
		}
		for name, c := range r.counts {
			k := key{r.env.Workload, r.env.Seed, name}
			if prev, ok := seen[k]; ok && prev != c {
				flags = append(flags, fmt.Sprintf("%s seed %d: %s differs between runs (%d vs %d)", k.workload, k.seed, name, prev, c))
			}
			seen[k] = c
		}
	}
	sort.Strings(flags)
	return flags
}
