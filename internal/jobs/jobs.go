// Package jobs is the typed measurement-job layer: it turns the paper's
// measurement battery (mixing time, expansion, coreness, Sybil
// acceptance, and every derived table and figure) into first-class,
// addressable jobs instead of one-shot script runs.
//
// A Job couples a name, a fingerprint of its typed configuration, and a
// Run function producing an Artifact — the complete, replayable output
// of one measurement (rendered summary plus every file it would write).
// Jobs register into a Registry, which resolves -run names (with
// nearest-name suggestions) and enumerates the battery for -list. A
// content-addressed Store under out/cache/ keys each artifact by
// (graph fingerprint, config fingerprint, schema version): a cache hit
// replays the stored artifact byte-identically without executing any
// measurement kernel, a miss runs the job and persists the result. The
// Runner glues the three together and exposes hit/miss/corruption
// counters through internal/obs, so a replayed run is verifiable as
// zero-kernel-work from its metrics window.
//
// The fingerprint contract: the config half of the key is
// ConfigFingerprint over the job's typed config struct (canonical JSON,
// FNV-1a); the graph half is the canonical graph.Fingerprint of the
// data substrate (or the dataset-registry digest for synthetic runs);
// SchemaVersion is baked into both the key and the stored envelope, so
// a format change invalidates every cached artifact at once. Worker
// count is deliberately not part of any fingerprint: the repo's
// determinism contract (results bit-identical at any worker count,
// enforced by the CI equivalence suites) makes artifacts
// worker-independent.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// SchemaVersion versions the artifact envelope and cache key. Bumping
// it orphans (never corrupts) every previously cached artifact. It is
// bumped when a measurement's method changes under an unchanged config,
// since the config fingerprint cannot tell the results apart: v2 is the
// switch of the SLEM from power iteration to Lanczos, v3 the one
// measurement catalog's summaries (the TVD table, the top core, the
// small-set mean α, and min α as the sampled vertex expansion), v4 the
// epochs table without its "Core repair" column, whose key (job name,
// substrate and JobConfig) did not change when the column went.
const SchemaVersion = "trustnet/artifact/v4"

// Job is one addressable measurement: a named unit of work whose
// configuration is fingerprinted into the artifact cache key and whose
// output is a complete, replayable Artifact.
type Job interface {
	// Name is the job's registry name (what -run resolves).
	Name() string
	// Fingerprint digests the job's typed configuration — the config
	// half of the artifact cache key. Equal fingerprints promise equal
	// results on the same graph substrate.
	Fingerprint() string
	// Run executes the measurement. A job either finishes and returns
	// its complete Artifact, or fails with an error; on an error the
	// Runner emits and caches nothing, and the next run executes the
	// job again from its start.
	Run(ctx context.Context, env Env) (*Artifact, error)
}

// Env is the runtime surrounding a job executes in, distinct from the
// job's own fingerprinted configuration: the identity of the data
// substrate.
type Env struct {
	// GraphFingerprint identifies the graph substrate the job measures;
	// the Runner combines it with the job's config fingerprint into the
	// artifact cache key.
	GraphFingerprint string
}

// File is one output file of a job, stored inside the artifact with a
// path relative to the run's output directory.
type File struct {
	// Path is the output-relative destination (e.g. "tableI.txt").
	Path string `json:"path"`
	// Data is the exact file content; replay writes it byte-for-byte.
	Data []byte `json:"data"`
}

// Artifact is the complete output of one job run: the rendered summary
// the runner prints and every file the job produces, addressable by the
// (graph, config, schema) key it was computed under.
type Artifact struct {
	// Schema is SchemaVersion at write time.
	Schema string `json:"schema"`
	// Job is the producing job's registry name.
	Job string `json:"job"`
	// GraphFingerprint and ConfigFingerprint are the two key halves the
	// artifact was computed under.
	GraphFingerprint  string `json:"graph_fingerprint"`
	ConfigFingerprint string `json:"config_fingerprint"`
	// Summary is the job's rendered human-readable report, replayed to
	// stdout verbatim on a cache hit.
	Summary string `json:"summary"`
	// Files are the job's outputs, written under the run's -out
	// directory both on first run and on replay.
	Files []File `json:"files,omitempty"`
	// Digest is the FNV-1a integrity digest over Summary and Files,
	// filled by the Store on save and verified on load, so a corrupted
	// cache entry falls back to recompute instead of replaying garbage.
	Digest string `json:"digest,omitempty"`
}

// ContentDigest returns the FNV-1a digest over the artifact's summary
// and files that Store.Save records and Store.Load verifies.
func (a *Artifact) ContentDigest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00", a.Summary)
	for _, f := range a.Files {
		fmt.Fprintf(h, "%s\x00", f.Path)
		h.Write(f.Data)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ConfigFingerprint digests a job's typed config struct into the config
// half of the cache key: canonical JSON (struct field order, so the
// digest is stable across runs and builds) folded through FNV-1a
// together with the schema version. Configs must be plain data; a value
// JSON cannot encode falls back to its %#v rendering.
func ConfigFingerprint(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		data = []byte(fmt.Sprintf("%#v", cfg))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00", SchemaVersion)
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// funcJob adapts a name, a fingerprinted config, and a run closure into
// a Job.
type funcJob struct {
	name string
	fp   string
	run  func(ctx context.Context, env Env) (*Artifact, error)
}

// New returns a Job with the given registry name whose fingerprint is
// ConfigFingerprint(cfg) and whose Run invokes run. cfg is the job's
// typed configuration struct; it is digested once at construction.
func New(name string, cfg any, run func(ctx context.Context, env Env) (*Artifact, error)) Job {
	return &funcJob{name: name, fp: ConfigFingerprint(cfg), run: run}
}

// Name implements Job.
func (j *funcJob) Name() string { return j.name }

// Fingerprint implements Job.
func (j *funcJob) Fingerprint() string { return j.fp }

// Run implements Job.
func (j *funcJob) Run(ctx context.Context, env Env) (*Artifact, error) {
	return j.run(ctx, env)
}
