package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/resilience"
)

// Observability instruments for the artifact cache. Hits and misses are
// counted by the Runner; the Store counts saves, the corruption and
// stale-schema entries it refused to replay, the entries evicted by
// the byte cap, and eviction scans that failed (prune errors never
// fail a Save).
var (
	obsCacheSaves    = obs.Default().Counter("jobs.cache.saves")
	obsCacheCorrupt  = obs.Default().Counter("jobs.cache.corrupt")
	obsCacheStale    = obs.Default().Counter("jobs.cache.stale")
	obsCacheEvicted  = obs.Default().Counter("jobs.cache.evicted")
	obsCachePruneErr = obs.Default().Counter("jobs.cache.prune_errors")
)

// Store is the content-addressed artifact cache: one JSON envelope per
// (job, graph fingerprint, config fingerprint, schema version) key,
// written atomically under a single directory (out/cache/ in the
// experiments runner).
//
// A Store is safe for concurrent use: Save (and the eviction scan it
// may trigger) is serialized by an internal mutex, and Load needs no
// lock because entries are only ever created whole by an atomic rename
// — a reader sees either no file or a complete envelope, never a torn
// write.
type Store struct {
	dir string
	// maxBytes > 0 caps the total size of cached envelopes; Save prunes
	// oldest-first (by mtime) until the directory fits again.
	maxBytes int64
	mu       sync.Mutex
}

// NewStore returns a store rooted at dir; the directory is created on
// the first Save. The store is unbounded until SetMaxBytes.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// SetMaxBytes bounds the cache directory: after every Save the oldest
// entries (by modification time, name-tiebroken for determinism) are
// evicted until the total size of cached envelopes is at most n bytes.
// The entry just saved is never evicted, so a cache capped below a
// single artifact still serves that artifact until the next Save.
// n <= 0 removes the bound. Evictions are counted by the
// jobs.cache.evicted counter.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Key is the content address of an artifact: an FNV-1a digest of the
// schema version, job name, and both fingerprint halves. Any change to
// any component addresses a different cache slot.
func Key(job, graphFP, configFP string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00", SchemaVersion, job, graphFP, configFP)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Path returns the file an artifact with the given key is stored at.
// The job name is embedded (sanitized) so out/cache stays browsable.
func (s *Store) Path(job, key string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, job)
	return filepath.Join(s.dir, clean+"-"+key+".json")
}

// Save persists the artifact under its content address, filling in the
// schema and integrity digest. The write is atomic, so a crash never
// leaves a truncated envelope; concurrent Saves are serialized. When a
// byte cap is set, Save then prunes the oldest entries until the
// directory fits it again. A prune failure is
// counted (jobs.cache.prune_errors), not returned: by then the
// artifact is durably saved, and an over-full cache must not report a
// successful run as failed.
func (s *Store) Save(a *Artifact) error {
	if a.Job == "" {
		return errors.New("jobs: save an artifact without a job name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a.Schema = SchemaVersion
	a.Digest = a.ContentDigest()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("jobs: cache dir: %w", err)
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: marshal artifact %q: %w", a.Job, err)
	}
	key := Key(a.Job, a.GraphFingerprint, a.ConfigFingerprint)
	path := s.Path(a.Job, key)
	if err := resilience.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobs: save artifact %q: %w", a.Job, err)
	}
	obsCacheSaves.Inc()
	if s.maxBytes > 0 {
		if err := s.pruneLocked(path); err != nil {
			obsCachePruneErr.Inc()
		}
	}
	return nil
}

// pruneLocked evicts cached envelopes oldest-first (mtime, then name)
// until the directory's total envelope size is within the byte cap,
// sparing keep (the entry just saved). Callers hold s.mu.
func (s *Store) pruneLocked(keep string) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	type cacheFile struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []cacheFile
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			// Concurrently removed; nothing left to account for.
			continue
		}
		files = append(files, cacheFile{path: filepath.Join(s.dir, e.Name()), size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= s.maxBytes {
			break
		}
		if f.path == keep {
			continue
		}
		if err := os.Remove(f.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		total -= f.size
		obsCacheEvicted.Inc()
	}
	return nil
}

// Load returns the cached artifact for the key, or nil when there is no
// usable entry. A missing file is a plain miss; a corrupt, truncated,
// digest-mismatched, or key-mismatched envelope is counted and treated
// as a miss (the job recomputes and overwrites it); a schema change
// likewise orphans the entry rather than erroring. Load never fails the
// run: the cache is an accelerator, not a source of truth.
func (s *Store) Load(job, graphFP, configFP string) *Artifact {
	key := Key(job, graphFP, configFP)
	data, err := os.ReadFile(s.Path(job, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		obsCacheCorrupt.Inc()
		return nil
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		obsCacheCorrupt.Inc()
		return nil
	}
	if a.Schema != SchemaVersion {
		obsCacheStale.Inc()
		return nil
	}
	if a.Job != job || a.GraphFingerprint != graphFP || a.ConfigFingerprint != configFP {
		obsCacheStale.Inc()
		return nil
	}
	if a.Digest != a.ContentDigest() {
		obsCacheCorrupt.Inc()
		return nil
	}
	return &a
}

// Stats summarizes the cache directory for logs and CI artifacts.
type Stats struct {
	// Entries is the number of cached artifacts; Bytes their total size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Stats scans the store directory. A store whose directory does not
// exist yet is empty, not an error.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("jobs: cache stats: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		st.Entries++
		if fi, err := e.Info(); err == nil {
			st.Bytes += fi.Size()
		}
	}
	return st, nil
}
