package jobs

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/trustnet/trustnet/internal/obs"
)

// Observability instruments for job execution. A replayed run shows
// hits with zero executions in its metrics window — the verifiable
// "no kernel ran" contract the cache tests assert. Deduped counts the
// concurrent callers that waited on another execution of the same key
// instead of running the job themselves.
var (
	obsRunExecuted = obs.Default().Counter("jobs.run.executed")
	obsRunDeduped  = obs.Default().Counter("jobs.run.deduped")
	obsCacheHits   = obs.Default().Counter("jobs.cache.hits")
	obsCacheMisses = obs.Default().Counter("jobs.cache.misses")
)

// Runner executes jobs through the artifact cache: a hit replays the
// stored artifact byte-identically (summary to Stdout, files under
// OutDir when it is set) without invoking the job; a miss runs the job,
// emits its artifact the same way, and caches it. The cache is the only
// record of finished work: a job that fails emits and caches nothing, so
// a rerun replays every finished job and runs the failed one again from
// its start.
type Runner struct {
	// Cache is the artifact store; nil disables caching (every run
	// executes).
	Cache *Store
	// Flight, when non-nil, deduplicates concurrent runs of the same
	// (job, graph, config) key across every Runner sharing the group:
	// one caller executes, the rest wait and replay its artifact. nil
	// keeps the historical behavior (concurrent identical calls race).
	Flight *Flight
	// Env is handed to jobs at execution time; Env.GraphFingerprint is
	// also the graph half of every cache key.
	Env Env
	// OutDir is where artifact files are written, on run and on replay.
	// Empty writes no files: the artifact, with its files inside, is
	// only emitted as a summary and cached, as the daemon keeps it.
	OutDir string
	// Stdout receives the CACHED/summary output; nil discards it.
	Stdout io.Writer
}

// Run executes j through the cache, returning whether the result was
// replayed (from a cached artifact, or from a concurrent execution of
// the same key when a Flight is configured). On a miss the job executes
// under the caller's ctx; its artifact is emitted and cached only when
// the job returns no error.
func (r *Runner) Run(ctx context.Context, j Job) (cached bool, err error) {
	w := r.Stdout
	if w == nil {
		w = io.Discard
	}
	configFP := j.Fingerprint()
	key := Key(j.Name(), r.Env.GraphFingerprint, configFP)
	if r.Flight == nil {
		_, cached, err = r.execute(ctx, j, w, configFP, key)
		return cached, err
	}
	c, leader := r.Flight.join(key)
	if !leader {
		select {
		case <-c.done:
		case <-ctx.Done():
			return false, ctx.Err()
		}
		obsRunDeduped.Inc()
		if c.art == nil {
			return false, c.err
		}
		fmt.Fprintf(w, "CACHED %s (artifact %s replayed from a concurrent run)\n", j.Name(), key)
		if emitErr := r.emit(w, c.art); emitErr != nil {
			return true, emitErr
		}
		return true, c.err
	}
	// finish must run even when the job panics, or every waiter of the
	// key (and every future caller of it) deadlocks on a flight that
	// never lands. The panic itself still propagates to the caller;
	// waiters see a plain error instead of a replayable artifact.
	var art *Artifact
	landed := false
	defer func() {
		if !landed {
			err = fmt.Errorf("jobs: %s: execution aborted mid-flight", j.Name())
		}
		r.Flight.finish(key, c, art, err)
	}()
	art, cached, err = r.execute(ctx, j, w, configFP, key)
	landed = true
	return cached, err
}

// execute is the single-caller run path: cache probe, job execution,
// artifact emit, cache save. It returns the artifact it emitted (from
// cache or computed) so a Flight leader can hand it to its waiters.
func (r *Runner) execute(ctx context.Context, j Job, w io.Writer, configFP, key string) (*Artifact, bool, error) {
	if r.Cache != nil {
		if a := r.Cache.Load(j.Name(), r.Env.GraphFingerprint, configFP); a != nil {
			obsCacheHits.Inc()
			fmt.Fprintf(w, "CACHED %s (artifact %s replayed byte-identically)\n", j.Name(), key)
			return a, true, r.emit(w, a)
		}
		obsCacheMisses.Inc()
	}
	obsRunExecuted.Inc()
	ctx, span := obs.StartSpan(ctx, "jobs.execute")
	a, err := j.Run(ctx, r.Env)
	span.End()
	if err != nil {
		return nil, false, err
	}
	a.Schema = SchemaVersion
	a.Job = j.Name()
	a.GraphFingerprint = r.Env.GraphFingerprint
	a.ConfigFingerprint = configFP
	if err := r.emit(w, a); err != nil {
		return a, false, err
	}
	if r.Cache != nil {
		if err := r.Cache.Save(a); err != nil {
			return a, false, err
		}
	}
	return a, false, nil
}

// emit writes the artifact's files under OutDir (atomically, creating
// parent directories; none when OutDir is empty) and its summary to w —
// identical whether the artifact was just computed or replayed from
// cache.
func (r *Runner) emit(w io.Writer, a *Artifact) error {
	if r.OutDir != "" {
		for _, f := range a.Files {
			path := filepath.Join(r.OutDir, filepath.FromSlash(f.Path))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return fmt.Errorf("jobs: artifact file %s: %w", f.Path, err)
			}
			if err := WriteFileAtomic(path, f.Data, 0o644); err != nil {
				return fmt.Errorf("jobs: artifact file %s: %w", f.Path, err)
			}
		}
	}
	if a.Summary != "" {
		if _, err := io.WriteString(w, a.Summary); err != nil {
			return fmt.Errorf("jobs: emit summary: %w", err)
		}
	}
	return nil
}
