package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one timed call: its name, the op it belongs to, the span
// that caused it, and its interval in nanoseconds since the trace began.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// InProcess marks a call made in the benchmark's own process;
	// AllocBytes is the heap it allocated. Spans around HTTP calls carry
	// neither: their work happens in the daemon.
	InProcess  bool   `json:"in_process,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps the spans of one traced run in memory. A disabled tracer
// records nothing and costs two predictable branches per span.
type tracer struct {
	on   bool
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	recs []spanRecord
}

// newTracer returns a tracer that records only when on.
func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// enabled reports whether t records spans; a nil tracer does not.
func (t *tracer) enabled() bool { return t != nil && t.on }

// tracedOp reports whether op i of a traced window is traced. A traced
// run interleaves traced and untraced ops in pairs (pairs, so that both
// families of the large workload, which alternate, are traced alike);
// the two halves' latencies give the tracing overhead.
func tracedOp(i int) bool { return (i/2)%2 == 0 }

// span is an open span handle; end closes it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	op     int
	name   string
	start  time.Time
}

// start opens a span named name for op, caused by parent (0 for a root).
func (t *tracer) start(op int, parent int64, name string) span {
	if !t.enabled() {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// end closes a span around a call into another process.
func (s span) end() { s.record(false, 0) }

// endAlloc closes a span around an in-process call that allocated
// alloc heap bytes.
func (s span) endAlloc(alloc uint64) { s.record(true, alloc) }

func (s span) record(inProcess bool, alloc uint64) {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.recs = append(s.t.recs, spanRecord{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(end.Sub(s.t.t0)),
		InProcess: inProcess, AllocBytes: alloc,
	})
	s.t.mu.Unlock()
}

// records returns a copy of the recorded spans.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.recs...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (the
// four measurements of one report wait concurrently) are merged first,
// so covered time is never counted twice.
func selfTimes(recs []spanRecord) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], [2]int64{r.Start, r.End})
		}
	}
	self := make(map[int64]int64, len(recs))
	for _, r := range recs {
		ivs := children[r.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered int64
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, iv := range ivs {
			s, e := max(iv[0], r.Start), min(iv[1], r.End)
			if e <= s {
				continue
			}
			if s > curE {
				flush()
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		flush()
		self[r.ID] = (r.End - r.Start) - covered
	}
	return self
}

// spanStats summarizes the calls of one span name.
type spanStats struct {
	Count      int     `json:"count"`
	P50Seconds float64 `json:"p50_s"`
	P50Self    float64 `json:"p50_self_s"`
	TotalSelf  float64 `json:"total_self_s"`
	P50AllocMB float64 `json:"p50_alloc_mb"`
	inProcess  bool
	durations  []float64 // per call, seconds
}

// summarize groups spans by name.
func summarize(recs []spanRecord) map[string]*spanStats {
	self := selfTimes(recs)
	out := make(map[string]*spanStats)
	selfs := make(map[string][]float64)
	allocs := make(map[string][]float64)
	for _, r := range recs {
		st := out[r.Name]
		if st == nil {
			st = &spanStats{}
			out[r.Name] = st
		}
		st.Count++
		d := float64(r.End-r.Start) / 1e9
		st.durations = append(st.durations, d)
		s := float64(self[r.ID]) / 1e9
		selfs[r.Name] = append(selfs[r.Name], s)
		st.TotalSelf += s
		if r.InProcess {
			allocs[r.Name] = append(allocs[r.Name], float64(r.AllocBytes)/(1<<20))
		}
	}
	for name, st := range out {
		st.P50Seconds = median(st.durations)
		st.P50Self = median(selfs[name])
		if a := allocs[name]; len(a) > 0 {
			st.P50AllocMB = median(a)
			st.inProcess = true
		}
	}
	return out
}

// writeTrace writes the spans and their per-name summary as JSON.
func writeTrace(path string, recs []spanRecord, sum map[string]*spanStats) error {
	data, err := json.MarshalIndent(struct {
		Summary map[string]*spanStats `json:"summary"`
		Spans   []spanRecord          `json:"spans"`
	}{sum, recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
