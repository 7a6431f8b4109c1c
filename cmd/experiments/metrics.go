package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
)

// metricsSchema versions the METRICS.json layout so downstream tooling
// (the CI artifact diff, notebooks) can detect incompatible changes.
const metricsSchema = "trustnet/metrics/v1"

// jobMetrics is one runner job's window in METRICS.json: wall clock,
// allocator deltas, heap state at completion, and the observability
// deltas (counters, gauges, timers, spans) attributed to the job. Jobs
// run sequentially, so diffing the shared registry snapshot around each
// job attributes every metric unambiguously.
type jobMetrics struct {
	Name        string  `json:"name"`
	Status      string  `json:"status"` // "ok" or "failed"
	Error       string  `json:"error,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// Allocs and AllocBytes are deltas of the runtime's cumulative
	// malloc count and allocated bytes across the job.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// HeapSysBytes is the heap memory obtained from the OS at job end —
	// the closest MemStats proxy for peak heap footprint, since it grows
	// to cover the high-water mark and is released back only lazily.
	HeapSysBytes   uint64       `json:"heap_sys_bytes"`
	HeapInuseBytes uint64       `json:"heap_inuse_bytes"`
	Metrics        obs.Snapshot `json:"metrics"`
}

// metricsFile is the METRICS.json document written after every run.
type metricsFile struct {
	Schema       string       `json:"schema"`
	Quick        bool         `json:"quick"`
	Seed         int64        `json:"seed"`
	Workers      int          `json:"workers"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Jobs         []jobMetrics `json:"jobs"`
	TotalSeconds float64      `json:"total_seconds"`
	Failed       int          `json:"failed"`
}

// metricsCollector accumulates per-job windows over the shared obs
// registry and the runtime allocator counters.
type metricsCollector struct {
	reg   *obs.Registry
	prev  obs.Snapshot
	start time.Time
	doc   metricsFile
}

func newMetricsCollector(reg *obs.Registry, quick bool, seed int64, workers int) *metricsCollector {
	return &metricsCollector{
		reg:   reg,
		prev:  reg.Snapshot(),
		start: time.Now(),
		doc: metricsFile{
			Schema:     metricsSchema,
			Quick:      quick,
			Seed:       seed,
			Workers:    workers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
}

// rebase advances the registry baseline so setup work done between
// collector creation and the first job (substrate fingerprinting, cache
// probes) is excluded from the first job's metrics window.
func (c *metricsCollector) rebase() { c.prev = c.reg.Snapshot() }

// beforeJob samples the allocator state the job's deltas are measured
// against.
func (c *metricsCollector) beforeJob() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// afterJob closes the job's window: allocator deltas, heap state, and
// the registry diff since the previous job.
func (c *metricsCollector) afterJob(name string, jobErr error, wall time.Duration, before runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	snap := c.reg.Snapshot()
	jm := jobMetrics{
		Name:           name,
		Status:         "ok",
		WallSeconds:    wall.Seconds(),
		Allocs:         after.Mallocs - before.Mallocs,
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		HeapSysBytes:   after.HeapSys,
		HeapInuseBytes: after.HeapInuse,
		Metrics:        snap.DiffSince(c.prev),
	}
	if jobErr != nil {
		jm.Status = "failed"
		jm.Error = jobErr.Error()
		c.doc.Failed++
	}
	c.prev = snap
	c.doc.Jobs = append(c.doc.Jobs, jm)
}

// write finalizes totals and writes METRICS.json under dir, returning
// the path written.
func (c *metricsCollector) write(dir string) (string, error) {
	c.doc.TotalSeconds = time.Since(c.start).Seconds()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	data, err := json.MarshalIndent(&c.doc, "", "  ")
	if err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	path := filepath.Join(dir, "METRICS.json")
	// Atomic so a crash mid-write never leaves a truncated METRICS.json
	// behind.
	if err := jobs.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	return path, nil
}
