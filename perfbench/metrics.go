package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics a result line carries (end to end untraced, per layer traced)
// and the bounds the steadiness report checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json at the root of the checkout.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// layerRow is one row of the layer table: a metric, its unit, and the
// workloads it applies to with the reason it does not apply elsewhere.
type layerRow struct {
	layer, name, unit string
	only              []string // nil: every workload
	why               string   // why the metric does not apply outside only
}

var (
	daemonWorkloads = []string{"paper", "large", "replay"}
	noDaemon        = "epochs runs internal/incremental in process; no daemon"
	noIncremental   = "no daemon route reaches internal/incremental; measured on epochs"
	noWalk          = "the incremental engine does not call walk, and the probe's calls come after the counter window"
	noExpansion     = "the incremental engine repairs its envelopes itself (expansion.Measure only folds them, running no BFS), and the probe's calls come after the counter window"
)

// layerTable is every per-layer metric the traced run reports. A
// metric BENCHMARK.json declares per layer must be a row whose only is
// nil and whose value is never 0.
var layerTable = []layerRow{
	{"trustnetd", "trustnetd.enqueue_s", "s", daemonWorkloads, noDaemon},
	{"trustnetd", "trustnetd.queue_wait_s", "s", daemonWorkloads, noDaemon},
	{"trustnetd", "trustnetd.artifact_get_s", "s", daemonWorkloads, noDaemon},
	{"trustnetd", "trustnetd.upload_s", "s", []string{"paper", "replay"}, "only paper and replay upload graphs"},
	{"trustnetd", "trustnetd.generate_s", "s", []string{"large"}, "only large generates graphs"},
	{"trustnetd", "trustnetd.evict_s", "s", []string{"large"}, "only large evicts graphs"},
	{"trustnetd", "trustnetd.jobs.failed", "count", daemonWorkloads, noDaemon},
	{"trustnetd", "trustnetd.jobs.rejected", "count", daemonWorkloads, noDaemon},
	{"jobs", "jobs.run_hit_s", "s", daemonWorkloads, noDaemon},
	{"jobs", "jobs.run_hit_alloc_mb", "MB", daemonWorkloads, noDaemon},
	{"jobs", "jobs.store_load_s", "s", daemonWorkloads, noDaemon},
	{"jobs", "jobs.store_load_alloc_mb", "MB", daemonWorkloads, noDaemon},
	{"jobs", "jobs.store_save_s", "s", daemonWorkloads, noDaemon},
	{"jobs", "jobs.store_save_alloc_mb", "MB", daemonWorkloads, noDaemon},
	{"jobs", "jobs.artifact_bytes", "B", daemonWorkloads, noDaemon},
	{"jobs", "jobs.cache.hits", "count", daemonWorkloads, noDaemon},
	{"jobs", "jobs.cache.misses", "count", daemonWorkloads, noDaemon},
	{"jobs", "jobs.cache.hit_frac", "ratio", daemonWorkloads, noDaemon},
	{"jobs", "jobs.run.executed", "count", daemonWorkloads, noDaemon},
	{"jobs", "jobs.run.deduped", "count", daemonWorkloads, noDaemon},
	{"walk", "walk.measure_mixing_s", "s", nil, ""},
	{"walk", "walk.measure_mixing_alloc_mb", "MB", nil, ""},
	{"walk", "walk.measure_mixing.per_source_s", "s", nil, ""},
	{"walk", "walk.measure_mixing.kernel_s", "s", nil, ""},
	{"walk", "walk.mixing.steps", "count", daemonWorkloads, noWalk},
	{"walk", "walk.mixing.dense_sources", "count", daemonWorkloads, noWalk},
	{"walk", "walk.mixing.kernel_blocks", "count", daemonWorkloads, noWalk},
	{"kernels", "kernels.walkblock_step_s", "s", nil, ""},
	{"kernels", "kernels.bfsbatch_run_s", "s", nil, ""},
	{"kernels", "kernels.bfsbatch_run_alloc_mb", "MB", nil, ""},
	{"expansion", "expansion.measure_s", "s", nil, ""},
	{"expansion", "expansion.measure_alloc_mb", "MB", nil, ""},
	{"expansion", "expansion.bfs.batches", "count", daemonWorkloads, noExpansion},
	{"expansion", "expansion.bfs.scalar_sources", "count", daemonWorkloads, noExpansion},
	{"spectral", "spectral.slem_s", "s", nil, ""},
	{"spectral", "spectral.slem_alloc_mb", "MB", nil, ""},
	{"spectral", "spectral.iteration_s", "s", nil, ""},
	{"spectral", "spectral.slem.iterations", "count", nil, ""},
	{"kcore", "kcore.decompose_s", "s", nil, ""},
	{"kcore", "kcore.decompose_alloc_mb", "MB", nil, ""},
	{"graph", "graph.open_mapped_s", "s", nil, ""},
	{"graph", "graph.open_mapped_alloc_mb", "MB", nil, ""},
	{"graph", "graph.fingerprint_s", "s", nil, ""},
	{"graph", "graph.fingerprint_alloc_mb", "MB", nil, ""},
	{"gen", "gen.stream_to_file_s", "s", nil, ""},
	{"gen", "gen.stream_to_file_alloc_mb", "MB", nil, ""},
	{"faults", "faults.advance_delta_s", "s", []string{"epochs"}, noIncremental},
	{"faults", "faults.advance_delta_alloc_mb", "MB", []string{"epochs"}, noIncremental},
	{"faults", "faults.delta_elems", "count", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.advance_s", "s", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.advance_alloc_mb", "MB", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.measure_s", "s", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.measure_alloc_mb", "MB", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.core_incremental_frac", "ratio", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.slem.warmed", "count", []string{"epochs"}, noIncremental},
	{"incremental", "incremental.core.full_recomputes", "count", []string{"epochs"}, noIncremental},
	{"harness", "trace.overhead_frac", "ratio", nil, ""},
}

// counterMetrics are the obs counters reported as window diffs.
var counterMetrics = []string{
	"trustnetd.jobs.failed", "trustnetd.jobs.rejected",
	"jobs.cache.hits", "jobs.cache.misses", "jobs.run.executed", "jobs.run.deduped",
	"walk.mixing.steps", "walk.mixing.dense_sources", "walk.mixing.kernel_blocks",
	"expansion.bfs.batches", "expansion.bfs.scalar_sources",
	"spectral.slem.iterations",
	"incremental.slem.warmed", "incremental.core.full_recomputes",
}

// traceData is what a traced run hands to layerValues.
type traceData struct {
	spans      []spanRecord
	extra      map[string][]float64
	queueWaits []float64
	counters   map[string]int64
	// tracedLat and untracedLat are the mean latencies of the traced and
	// the untraced ops of the window. In a closed loop ops_per_s is
	// clients ÷ mean latency, so their ratio is the ratio of the two
	// halves' ops_per_s.
	tracedLat, untracedLat float64
}

// layerValues computes every layer-table metric the trace holds.
func layerValues(t traceData) map[string]float64 {
	v := make(map[string]float64)
	for name, st := range summarize(t.spans) {
		if name == "op" {
			continue
		}
		v[name+"_s"] = st.P50Seconds
		if st.inProcess {
			v[name+"_alloc_mb"] = st.P50AllocMB
		}
	}
	if len(t.queueWaits) > 0 {
		v["trustnetd.queue_wait_s"] = median(t.queueWaits)
	}
	for _, name := range []string{"spectral.iteration_s", "kernels.walkblock_step_s",
		"walk.measure_mixing.per_source_s", "walk.measure_mixing.kernel_s"} {
		if xs := t.extra[name]; len(xs) > 0 {
			v[name] = median(xs)
		}
	}
	for _, name := range []string{"jobs.artifact_bytes", "faults.delta_elems"} {
		if xs := t.extra[name]; len(xs) > 0 {
			v[name] = mean(xs)
		}
	}
	for _, name := range counterMetrics {
		if c, ok := t.counters[name]; ok {
			v[name] = float64(c)
		}
	}
	if n := t.counters["jobs.cache.hits"] + t.counters["jobs.cache.misses"]; n > 0 {
		v["jobs.cache.hit_frac"] = float64(t.counters["jobs.cache.hits"]) / float64(n)
	}
	if n := t.counters["incremental.engine.advances"]; n > 0 {
		v["incremental.core_incremental_frac"] = float64(t.counters["incremental.engine.core_incremental"]) / float64(n)
	}
	if t.tracedLat > 0 && t.untracedLat > 0 {
		v["trace.overhead_frac"] = 1 - t.untracedLat/t.tracedLat
	}
	return v
}

// applies reports whether row applies to workload.
func (r layerRow) applies(workload string) bool {
	if r.only == nil {
		return true
	}
	for _, w := range r.only {
		if w == workload {
			return true
		}
	}
	return false
}

// printLayerTable writes the layer table for workload: every row with
// its value, or the reason it was not measured.
func printLayerTable(w io.Writer, workload string, v map[string]float64) {
	fmt.Fprintf(w, "layer table (%s): time = p50 over the traced run's calls; counts = window diffs\n", workload)
	for _, r := range layerTable {
		val, ok := v[r.name]
		switch {
		case !r.applies(workload):
			fmt.Fprintf(w, "  %-12s %-36s %14s n/a: %s\n", r.layer, r.name, "-", r.why)
		case ok:
			fmt.Fprintf(w, "  %-12s %-36s %14.6g %s\n", r.layer, r.name, val, r.unit)
		default:
			fmt.Fprintf(w, "  %-12s %-36s %14s n/a: no calls in this run\n", r.layer, r.name, "-")
		}
	}
}

// countsOf returns the window-diffed counters of the layer table that
// apply to workload, for the report's check that counts repeat for a
// seed.
func countsOf(workload string, counters map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range layerTable {
		if c, ok := counters[r.name]; ok && r.applies(workload) {
			out[r.name] = c
		}
	}
	return out
}
