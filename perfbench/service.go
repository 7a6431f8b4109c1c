package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/trustnetd"
)

// kinds is the daemon's measurement catalog, in catalog order.
var kinds = []string{"mixing", "expansion", "coreness", "slem"}

// paperConfig pins every MeasureConfig field for stand-in reports. The
// SLEM tolerance matters most: the daemon default of 1e-10 costs tens of
// seconds per request on large graphs and varies with the seed.
func paperConfig(seed int64) trustnetd.MeasureConfig {
	return trustnetd.MeasureConfig{Seed: seed, Sources: 16, MaxSteps: 50, ExpansionSources: 64, Tolerance: 1e-6, Epsilon: 1e-3}
}

// largeConfig pins every MeasureConfig field for generated graphs.
func largeConfig(seed int64) trustnetd.MeasureConfig {
	return trustnetd.MeasureConfig{Seed: seed, Sources: 16, MaxSteps: 20, ExpansionSources: 64, Tolerance: 1e-4, Epsilon: 1e-3}
}

// Sizes of the large workload's graphs: 4·10⁴ nodes put the CSR
// adjacency (about 2.5 MB for BA with attach 8) and the 16-column walk
// block (5 MB) above a 2 MiB per-core L2.
const (
	largeNodes       = 40000
	largeAttach      = 8
	largeCommunities = 200
	largeBridges     = 4
)

// generateRequest is the daemon request that synthesizes op's graph.
func generateRequest(op largeOp) trustnetd.GenerateRequest {
	if op.Family == familyBA {
		return trustnetd.GenerateRequest{Model: "ba", Nodes: largeNodes, Attach: largeAttach, Seed: op.Seed}
	}
	return trustnetd.GenerateRequest{Model: "clustered-pa", Communities: largeCommunities,
		CommunitySize: largeNodes / largeCommunities, Attach: largeAttach, Bridges: largeBridges, Seed: op.Seed}
}

// largeStream is the in-process stream of the same graph the daemon
// generates for op.
func largeStream(op largeOp) (gen.EdgeStream, error) {
	req := generateRequest(op)
	if op.Family == familyBA {
		return gen.StreamBA(req.Nodes, req.Attach, req.Seed)
	}
	return gen.StreamClusteredPA(gen.ClusteredPAConfig{Communities: req.Communities,
		CommunitySize: req.CommunitySize, Attach: req.Attach, Bridges: req.Bridges, Seed: req.Seed})
}

// standIn is one internal/datasets stand-in with its upload bytes and
// expected canonical fingerprint.
type standIn struct {
	name string
	g    *graph.Graph
	tng2 []byte
	fp   string
}

// loadStandIns generates the 15 stand-ins.
func loadStandIns() ([]standIn, error) {
	var out []standIn
	for _, sp := range datasets.All() {
		g, err := sp.Generate()
		if err != nil {
			return nil, fmt.Errorf("stand-in %s: %w", sp.Name, err)
		}
		var buf bytes.Buffer
		if err := graph.WriteCSR(&buf, g); err != nil {
			return nil, fmt.Errorf("stand-in %s: %w", sp.Name, err)
		}
		out = append(out, standIn{name: sp.Name, g: g, tng2: buf.Bytes(), fp: graph.Fingerprint(g)})
	}
	return out, nil
}

// fetched is one measurement as the client saw it.
type fetched struct {
	status trustnetd.JobStatus
	body   []byte
}

// session issues requests to a daemon, with spans when its tracer
// records. Sessions made from one another share their state: the
// queue waits of traced jobs and the measurements kept for the traced
// run's result checks.
type session struct {
	d  *daemon
	tr *tracer
	*sessionState
}

// sessionState is what the sessions of one phase share.
type sessionState struct {
	keep       bool // retain measurements for the result checks
	mu         sync.Mutex
	queueWaits []float64
	kept       map[int][]fetched
}

// newSession returns a session on d; keep retains the measurements the
// traced run checks.
func newSession(d *daemon, tr *tracer, keep bool) *session {
	return &session{d: d, tr: tr, sessionState: &sessionState{keep: keep}}
}

// withTracer returns a session sharing s's daemon and state that records
// spans into tr.
func (s *session) withTracer(tr *tracer) *session {
	return &session{d: s.d, tr: tr, sessionState: s.sessionState}
}

// upload registers a stand-in under its name and checks the
// fingerprint the daemon computed for it.
func (s *session) upload(ctx context.Context, si standIn) error {
	sp := s.tr.start(-1, 0, "trustnetd.upload")
	body, err := s.d.call(ctx, "PUT", "/v1/graphs/"+si.name, si.tng2, http.StatusCreated)
	sp.end()
	if err != nil {
		return err
	}
	var info trustnetd.GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("upload %s: %w", si.name, err)
	}
	if info.Fingerprint != si.fp {
		return fmt.Errorf("upload %s: daemon fingerprint %s, want %s", si.name, info.Fingerprint, si.fp)
	}
	return nil
}

// measure enqueues the given measurements of cfg on graph, long-polls
// each to completion and fetches each artifact.
func (s *session) measure(ctx context.Context, op int, parent int64, graph string, cfg trustnetd.MeasureConfig, kinds []string) ([]fetched, error) {
	out := make([]fetched, len(kinds))
	enqueued := make([]time.Time, len(kinds))
	for k, kind := range kinds {
		sp := s.tr.start(op, parent, "trustnetd.enqueue")
		err := s.d.callJSON(ctx, "POST", "/v1/jobs", trustnetd.JobRequest{Graph: graph, Job: kind, Config: cfg},
			&out[k].status, http.StatusAccepted)
		sp.end()
		if err != nil {
			return nil, err
		}
		enqueued[k] = time.Now()
	}
	for k := range kinds {
		sp := s.tr.start(op, parent, "trustnetd.wait")
		err := s.d.callJSON(ctx, "GET", "/v1/jobs/"+out[k].status.ID+"?wait=170s", nil, &out[k].status, http.StatusOK)
		sp.end()
		if err != nil {
			return nil, err
		}
		if s.tr.enabled() {
			w := time.Since(enqueued[k]).Seconds() - out[k].status.WallSeconds
			s.mu.Lock()
			s.queueWaits = append(s.queueWaits, w)
			s.mu.Unlock()
		}
	}
	for k := range kinds {
		if out[k].status.State != trustnetd.StateDone {
			return nil, fmt.Errorf("job %s (%s on %s) ended %s: %s", out[k].status.ID, kinds[k], graph, out[k].status.State, out[k].status.Error)
		}
		sp := s.tr.start(op, parent, "trustnetd.artifact_get")
		body, err := s.d.call(ctx, "GET", "/v1/jobs/"+out[k].status.ID+"/artifact", nil, http.StatusOK)
		sp.end()
		if err != nil {
			return nil, err
		}
		out[k].body = body
	}
	return out, nil
}

// checkFetched verifies one fetched measurement: the job finished, the
// cache answered as expected, the graph fingerprint is the one computed
// for the input, and the envelope's integrity digest verifies.
func checkFetched(f fetched, kind, wantFP string, wantCached bool) error {
	st := f.status
	if st.State != trustnetd.StateDone {
		return fmt.Errorf("job %s: state %s", st.ID, st.State)
	}
	if st.Cached != wantCached {
		return fmt.Errorf("job %s (%s): cached=%v, want %v", st.ID, kind, st.Cached, wantCached)
	}
	if st.GraphFingerprint != wantFP {
		return fmt.Errorf("job %s (%s): graph fingerprint %s, want %s", st.ID, kind, st.GraphFingerprint, wantFP)
	}
	var a jobs.Artifact
	if err := json.Unmarshal(f.body, &a); err != nil {
		return fmt.Errorf("job %s (%s): artifact: %w", st.ID, kind, err)
	}
	if a.Job != kind || a.GraphFingerprint != wantFP || a.ConfigFingerprint != st.ConfigFingerprint {
		return fmt.Errorf("job %s (%s): artifact keyed %s/%s/%s", st.ID, kind, a.Job, a.GraphFingerprint, a.ConfigFingerprint)
	}
	if a.Digest == "" || a.Digest != a.ContentDigest() {
		return fmt.Errorf("job %s (%s): artifact digest %q does not verify", st.ID, kind, a.Digest)
	}
	return nil
}

// summaryOf returns the summary of an artifact envelope.
func summaryOf(body []byte) (string, error) {
	var a jobs.Artifact
	if err := json.Unmarshal(body, &a); err != nil {
		return "", err
	}
	return a.Summary, nil
}

var (
	fingerprintLine = regexp.MustCompile(`(?m)^fingerprint ([0-9a-f]{16})$`)
	muLine          = regexp.MustCompile(`(?m)^slem: mu = ([0-9.]+) `)
)

// windowStats is what one timed window measured.
type windowStats struct {
	ops      int
	elapsed  time.Duration
	cpu      time.Duration
	rssMB    float64
	lat      []float64
	counters map[string]int64
	tally    tally
	// rates and cpuPerOp hold ops/s and CPU seconds per op of each
	// sub-window: a run of consecutive completions of equal size. rates
	// are steal-corrected (see unstolen); rawRates are not.
	rates, rawRates, cpuPerOp []float64
	// pooled makes opsPerS and cpuSPerOp pool the sub-windows instead
	// of taking their median, for a window whose sub-windows differ by
	// design (see epochSubWindow).
	pooled bool
	// stolen is the time the hypervisor took from the work over the
	// whole window (see lostIn).
	stolen time.Duration
}

// opsPerS is the median steal-corrected ops/s over the window's
// sub-windows. A median of sub-windows drops the bursts a shared host
// injects into a few of them, which a whole-window mean would carry.
// A pooled window reports its ops over the summed corrected time.
func (w windowStats) opsPerS() float64 { return w.aggregate(w.rates) }

// wallOpsPerS is opsPerS without the steal correction.
func (w windowStats) wallOpsPerS() float64 { return w.aggregate(w.rawRates) }

// aggregate is the median of per-sub-window rates, or for a pooled
// window the ops of all sub-windows over their summed time.
func (w windowStats) aggregate(rates []float64) float64 {
	if !w.pooled {
		return median(rates)
	}
	var secs float64 // sub-windows are equal in ops, so pool their times
	for _, r := range rates {
		secs += 1 / r
	}
	return float64(len(rates)) / secs
}

// cpuSPerOp is the median CPU seconds per op over the sub-windows, or
// their mean for a pooled window.
func (w windowStats) cpuSPerOp() float64 {
	if !w.pooled {
		return median(w.cpuPerOp)
	}
	return mean(w.cpuPerOp)
}

// subWindows records the boundaries of a window's sub-windows: every
// size completed ops it reads the clock, the stolen time and the
// working process's CPU.
type subWindows struct {
	size  int
	cpu   func() (time.Duration, error)
	steal *stealClock

	mu   sync.Mutex
	done int
	t    []time.Time
	c    []time.Duration
	l    []time.Duration // stolen time so far
	err  error
}

// newSubWindows starts the first sub-window now.
func newSubWindows(size int, cpu func() (time.Duration, error), steal *stealClock) (*subWindows, error) {
	c0, err := cpu()
	if err != nil {
		return nil, err
	}
	return &subWindows{size: max(1, size), cpu: cpu, steal: steal, t: []time.Time{time.Now()},
		c: []time.Duration{c0}, l: []time.Duration{steal.read()}}, nil
}

// complete counts one completed op, closing a sub-window every size ops.
func (s *subWindows) complete() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if s.done%s.size != 0 {
		return
	}
	c, err := s.cpu()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.t = append(s.t, time.Now())
	s.c = append(s.c, c)
	s.l = append(s.l, s.steal.read())
}

// fill writes the sub-window rates, the CPU per op, and the whole
// window's elapsed time, CPU and steal into w. Ops after the last full
// sub-window count toward the totals only.
func (s *subWindows) fill(w *windowStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	end := time.Now()
	cEnd, err := s.cpu()
	if err != nil {
		return err
	}
	for k := 1; k < len(s.t); k++ {
		d := s.t[k].Sub(s.t[k-1])
		w.rawRates = append(w.rawRates, float64(s.size)/d.Seconds())
		w.rates = append(w.rates, float64(s.size)/unstolen(d, s.l[k]-s.l[k-1]).Seconds())
		w.cpuPerOp = append(w.cpuPerOp, (s.c[k]-s.c[k-1]).Seconds()/float64(s.size))
	}
	w.elapsed = end.Sub(s.t[0])
	w.cpu = cEnd - s.c[0]
	w.stolen = s.steal.read() - s.l[0]
	return nil
}

// opFunc performs op i under the given root span (its time is the op
// latency) and returns a check that runs after the latency is taken;
// both errors count as failures of the op.
type opFunc func(i int, tr *tracer, parent int64) (func() error, error)

// runClosedLoop runs ops 0..n-1 from clients concurrent closed-loop
// clients pulling from one shared sequence; tracerFor gives each op's
// tracer (nil for none).
func runClosedLoop(ctx context.Context, n int, tracerFor func(i int) *tracer, do opFunc) ([]float64, tally) {
	return runClosedLoopWindows(ctx, n, tracerFor, do, nil, nil)
}

// runClosedLoopWindows is runClosedLoop reporting each completed op to
// sub and, before timing op i, calling gate(i) when they are non-nil.
func runClosedLoopWindows(ctx context.Context, n int, tracerFor func(i int) *tracer, do opFunc, gate func(i int), sub *subWindows) ([]float64, tally) {
	lat := make([]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if gate != nil {
					gate(i)
				}
				tr := tracerFor(i)
				sp := tr.start(i, 0, "op")
				start := time.Now()
				check, err := do(i, tr, sp.id)
				lat[i] = time.Since(start).Seconds()
				sp.end()
				if sub != nil {
					sub.complete()
				}
				if err == nil && check != nil {
					err = check()
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	var t tally
	for _, err := range errs {
		if err != nil {
			t.fail(err)
		} else {
			t.ok()
		}
	}
	return lat, t
}

// daemonWindow times n ops against d in sub-windows of subSize ops:
// daemon CPU from /proc, peak RSS, and the window diff of the daemon's
// obs counters.
func daemonWindow(ctx context.Context, d *daemon, steal *stealClock, n, subSize int, tracerFor func(i int) *tracer, do opFunc, gate func(i int)) (windowStats, error) {
	c0, err := d.counters(ctx)
	if err != nil {
		return windowStats{}, err
	}
	sub, err := newSubWindows(subSize, func() (time.Duration, error) { return procCPU(d.pid()) }, steal)
	if err != nil {
		return windowStats{}, err
	}
	lat, t := runClosedLoopWindows(ctx, n, tracerFor, do, gate, sub)
	w := windowStats{ops: n, lat: lat, tally: t}
	if err := sub.fill(&w); err != nil {
		return windowStats{}, err
	}
	if w.rssMB, err = procPeakRSSMB(fmt.Sprint(d.pid())); err != nil {
		return windowStats{}, err
	}
	c1, err := d.counters(ctx)
	if err != nil {
		return windowStats{}, err
	}
	w.counters = diffCounters(c1, c0)
	return w, nil
}

// diffCounters returns after − before for every counter in after.
func diffCounters(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
