package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{99, 0.9, 90, 9, false},
		{100, 0.9, 90, 10, true},
		{19, 0.5, 10, 9, false},
		{20, 0.5, 10, 10, true},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %d beyond, ok=%v; want %v, %d, %v", c.n, c.p, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; fields 14 and 15
	// (utime, stime) are counted from the last ')'.
	line := "4242 (trust) (netd) S 1 4242 4242 0 -1 4194560 1433 0 0 0 731 129 0 0 20 0 9 0 5221 0 0\n"
	u, s, err := parseProcStat([]byte(line))
	if err != nil || u != 731 || s != 129 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 731, 129", u, s, err)
	}
	if _, _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed without error")
	}
	if _, _, err := parseProcStat([]byte("no name here")); err == nil {
		t.Error("stat line without a name parsed without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttrustnetd\nVmPeak:\t 1265432 kB\nVmHWM:\t   17520 kB\nVmRSS:\t   17000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 17520 {
		t.Fatalf("parseVmHWM = %d, %v; want 17520", kb, err)
	}
	if _, err := parseVmHWM([]byte("VmRSS:\t 1 kB\n")); err == nil {
		t.Error("status without VmHWM parsed without error")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t 12 MB\n")); err == nil {
		t.Error("VmHWM in an unknown unit parsed without error")
	}
}

func TestParseSchedstatAndHostStat(t *testing.T) {
	if d, err := parseSchedstat([]byte("4929577 2340405 7\n")); err != nil || d != 4929577 {
		t.Fatalf("parseSchedstat = %v, %v; want 4929577ns", d, err)
	}
	if _, err := parseSchedstat([]byte("12 34\n")); err == nil {
		t.Error("two-field schedstat parsed without error")
	}
	if d, err := procCPU(os.Getpid()); err != nil || d <= 0 {
		t.Fatalf("procCPU(self) = %v, %v", d, err)
	}
	a, err := parseHostStat([]byte("cpu  100 1 50 800 10 4 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\ncpu1 50 1 25 400 5 4 3 17 7 0\nintr 1 2\n"))
	want := hostCPU{busy: 160, steal: 35, all: 1005, cpus: 2}
	if err != nil || a != want {
		t.Fatalf("parseHostStat = %+v, %v; want %+v (guest time excluded, counted in user)", a, err, want)
	}
	if _, err := parseHostStat([]byte("cpu  1 2 3 4 5 6 7 8\nintr 1 2 3\n")); err == nil {
		t.Error("stat without a per-cpu line parsed without error")
	}
	if _, err := parseHostStat([]byte("cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7\n")); err == nil {
		t.Error("cpu line without a steal field parsed without error")
	}
	// The clock's own goroutine and the callers read it concurrently.
	c := startStealClock(time.Millisecond)
	prev := c.read()
	for i := 0; i < 50; i++ {
		time.Sleep(100 * time.Microsecond)
		d := c.read()
		if d < prev {
			t.Fatalf("steal clock went back from %v to %v", prev, d)
		}
		prev = d
	}
	c.close()
}

func TestLostInLeavesWaitsWhole(t *testing.T) {
	at := func(busy, steal, all uint64) hostCPU { return hostCPU{busy: busy, steal: steal, all: all, cpus: 2} }
	zero := at(0, 0, 0)
	// Two vCPUs, 100 ticks each. Serial work on one at a time, the other
	// idle: every stolen tick delayed the work.
	if got := lostIn(zero, at(60, 40, 200)); got != 40 {
		t.Fatalf("serial: lost %v ticks, want 40", got)
	}
	// Parallel work on both: the work lost the stolen share, 40 of 200
	// wanted ticks, of the 100-tick interval.
	if got := lostIn(zero, at(160, 40, 200)); got != 20 {
		t.Fatalf("parallel: lost %v ticks, want 20", got)
	}
	// Serial work that also waits: the wait adds idle ticks, which
	// change nothing, so the wait is left whole.
	for _, all := range []uint64{200, 400, 1000} {
		if got := lostIn(zero, at(30, 20, all)); got != 20 {
			t.Fatalf("serial with waits (%d ticks): lost %v, want 20", all, got)
		}
	}
	if got := lostIn(zero, zero); got != 0 {
		t.Fatalf("no interval: lost %v", got)
	}
	if got := lostIn(at(10, 10, 100), at(5, 10, 200)); got != 0 {
		t.Fatalf("counters went backwards: lost %v", got)
	}
	if got := unstolen(time.Second, 250*time.Millisecond); got != 750*time.Millisecond {
		t.Fatalf("unstolen = %v", got)
	}
	if got := unstolen(time.Millisecond, 5*time.Millisecond); got != time.Millisecond {
		t.Fatalf("steal above the interval was subtracted: %v", got)
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got := rusageCPU(&ru); got != 1750*time.Millisecond {
		t.Fatalf("rusageCPU = %v, want 1.75s", got)
	}
	if d, err := selfCPU(); err != nil || d <= 0 {
		t.Fatalf("selfCPU = %v, %v", d, err)
	}
	if mb, err := procPeakRSSMB("self"); err != nil || mb <= 0 {
		t.Fatalf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
}

func TestFailAccounting(t *testing.T) {
	// Ops fail in the op or in its output check; both count once.
	_, got := runClosedLoop(context.Background(), 10, noTracer, func(i int, _ *tracer, _ int64) (func() error, error) {
		switch i % 5 {
		case 1:
			return nil, errors.New("refused")
		case 2:
			return func() error { return errors.New("bad digest") }, nil
		}
		return func() error { return nil }, nil
	})
	if got.attempted != 10 || got.failed != 4 || got.failFrac() != 0.4 {
		t.Fatalf("tally = %d attempted, %d failed, frac %v; want 10, 4, 0.4", got.attempted, got.failed, got.failFrac())
	}
	var all tally
	all.add(got)
	all.check(nil)
	all.check(errors.New("mismatch"))
	if all.expect(true, "unused") != true || all.expect(false, "op %d: lost", 3) != false {
		t.Fatal("expect does not return its condition")
	}
	// Every check adds one attempt, whether it passed or failed.
	if all.attempted != 14 || all.failed != 6 || len(all.first) != 5 {
		t.Fatalf("after checks: %d attempted, %d failed, %d messages; want 14, 6, 5", all.attempted, all.failed, len(all.first))
	}
	var none tally
	if none.failFrac() != 0 {
		t.Fatal("failFrac of nothing attempted is not 0")
	}
	// A canceled context fails the remaining ops instead of running them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, got = runClosedLoop(ctx, 3, noTracer, func(int, *tracer, int64) (func() error, error) {
		t.Error("op ran under a canceled context")
		return nil, nil
	})
	if got.failed != 3 {
		t.Fatalf("canceled run: %d failed, want 3", got.failed)
	}
}

func TestOpSequencesArePureFunctionsOfTheSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		if !reflect.DeepEqual(paperOps(seed, 90, 15), paperOps(seed, 90, 15)) {
			t.Errorf("paperOps(%d) differs between calls", seed)
		}
		if !reflect.DeepEqual(largeOps(seed, 24), largeOps(seed, 24)) {
			t.Errorf("largeOps(%d) differs between calls", seed)
		}
		if !reflect.DeepEqual(replayOps(seed, 600, 60), replayOps(seed, 600, 60)) {
			t.Errorf("replayOps(%d) differs between calls", seed)
		}
	}
	if reflect.DeepEqual(paperOps(1, 90, 15), paperOps(2, 90, 15)) {
		t.Error("paperOps ignores the seed")
	}
	if reflect.DeepEqual(replayOps(1, 600, 60), replayOps(2, 600, 60)) {
		t.Error("replayOps ignores the seed")
	}
	if reflect.DeepEqual(largeOps(1, 4), largeOps(2, 4)) {
		t.Error("largeOps ignores the seed")
	}
}

func TestOpSequenceShapes(t *testing.T) {
	ops := paperOps(5, 90, 15)
	seeds := make(map[int64]bool)
	perDataset := make(map[int]int)
	for _, o := range ops {
		if seeds[o.Seed] || o.Seed == 0 {
			t.Fatalf("paper seed %d reused or zero", o.Seed)
		}
		seeds[o.Seed] = true
		perDataset[o.Dataset]++
	}
	for d := 0; d < 15; d++ {
		if perDataset[d] != 6 {
			t.Fatalf("dataset %d appears %d times in 6 passes, want 6", d, perDataset[d])
		}
	}
	if seeds[warmupSeed] {
		t.Fatal("warm-up seed collides with an op seed")
	}
	rops := replayOps(5, 600, 60)
	for i := 60; i < len(rops); i++ {
		if rops[i] != rops[i-60] {
			t.Fatalf("replay key at %d is not %d ops after its previous request", i, 60)
		}
	}
	for i := 1; i < 60; i++ {
		for j := 0; j < i; j++ {
			if rops[i] == rops[j] {
				t.Fatalf("replay key %d repeats within one permutation", rops[i])
			}
		}
	}
	lops := largeOps(5, 6)
	for i, o := range lops {
		want := familyBA
		if i%2 == 1 {
			want = familyPA
		}
		if o.Family != want || (i > 0 && o.Seed == lops[i-1].Seed) || o.Name == "" {
			t.Fatalf("large op %d = %+v", i, o)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	recs := []spanRecord{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120}, // clipped at the parent's end
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},
	}
	self := selfTimes(recs)
	want := map[int64]int64{1: 100 - 40 - 10 - 5, 2: 20, 3: 20, 4: 10, 5: 25, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	sum := summarize(recs)
	if sum["op"].Count != 1 || sum["op"].P50Self != 45e-9 {
		t.Fatalf("summary of op = %+v", *sum["op"])
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer(false)} {
		sp := tr.start(0, 0, "op")
		sp.end()
		if sp.id != 0 {
			t.Fatal("disabled tracer handed out a span id")
		}
	}
	tr := newTracer(true)
	root := tr.start(3, 0, "op")
	tr.start(3, root.id, "child").endAlloc(64)
	root.end()
	recs := tr.records()
	if len(recs) != 2 || recs[0].Parent != root.id || !recs[0].InProcess || recs[0].AllocBytes != 64 || recs[1].InProcess {
		t.Fatalf("records = %+v", recs)
	}
}

func TestReportReadsRunsAndFlagsCounts(t *testing.T) {
	out := func(seed int64, hits int64) string {
		env, _ := json.Marshal(envRecord{Workload: "replay", Seed: seed, Trace: 1})
		counts, _ := json.Marshal(map[string]int64{"jobs.cache.hits": hits, "jobs.run.executed": 0})
		res, _ := json.Marshal(resultLine{Correct: true, Attempted: 5, Metrics: map[string]metricValue{
			"spectral.slem_s":       {float64(seed) / 10, "s"},
			"walk.measure_mixing_s": {0.5, "s"},
		}})
		return "env " + string(env) + "\nmetric junk line\ncounts " + string(counts) + "\n" + string(res) + "\n"
	}
	var runs []runRecord
	for _, text := range []string{out(1, 600), out(1, 600), out(2, 600), out(2, 601)} {
		r, err := parseRun([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	flags := countFlags(runs)
	if len(flags) != 1 || !strings.Contains(flags[0], "seed 2") || !strings.Contains(flags[0], "jobs.cache.hits") {
		t.Fatalf("countFlags = %v", flags)
	}
	if _, err := parseRun([]byte("no env\n{}\n")); err == nil {
		t.Error("output without an env line parsed")
	}
}

func TestCountersOnlyWhereMeasured(t *testing.T) {
	// A counter missing from the snapshot is not reported as 0, and a
	// counter of a layer a workload does not reach is n/a even when the
	// snapshot holds it.
	v := layerValues(traceData{counters: map[string]int64{"jobs.cache.hits": 0, "incremental.slem.warmed": 100}})
	if _, ok := v["walk.mixing.steps"]; ok {
		t.Error("a counter missing from the snapshot got a value")
	}
	if v["jobs.cache.hits"] != 0 || v["incremental.slem.warmed"] != 100 {
		t.Errorf("layerValues = %v", v)
	}
	var b strings.Builder
	printLayerTable(&b, "epochs", v)
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "jobs.cache.hits") && !strings.Contains(line, "n/a: "+noDaemon) {
			t.Errorf("epochs row printed as measured: %q", line)
		}
	}
	got := countsOf("epochs", map[string]int64{"jobs.cache.hits": 0, "incremental.slem.warmed": 100})
	if !reflect.DeepEqual(got, map[string]int64{"incremental.slem.warmed": 100}) {
		t.Errorf("countsOf(epochs) = %v", got)
	}
}

func TestBenchmarkJSONDeclaresMeasuredMetrics(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadRates[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to perfbench", w.Name)
		}
	}
	vals := endToEndValues(1, windowStats{})
	for _, m := range spec.EndToEnd {
		if _, ok := vals[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not one perfbench measures", m.Name)
		}
	}
	// A declared per-layer metric must be measured on every workload.
	for _, m := range spec.PerLayer {
		found := false
		for _, r := range layerTable {
			found = found || (r.name == m.Name && r.unit == m.Unit && r.only == nil)
		}
		if !found {
			t.Errorf("per-layer metric %s %s is not a layer-table row measured on every workload", m.Name, m.Unit)
		}
	}
}
