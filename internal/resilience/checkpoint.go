package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/trustnet/trustnet/internal/obs"
)

// CheckpointSchema versions the checkpoint envelope so a resumed run
// can reject state written by an incompatible build.
const CheckpointSchema = "trustnet/checkpoint/v1"

// Checkpoint statuses.
const (
	// StatusDone marks finished work (a measured dataset); a resumed run
	// reuses its payload verbatim.
	StatusDone = "done"
	// StatusPartial marks in-progress state (completed sources or
	// epochs); a resumed run continues from the payload.
	StatusPartial = "partial"
)

// Observability instruments for the checkpoint store.
var (
	obsCkptSaves  = obs.Default().Counter("resilience.checkpoint.saves")
	obsCkptLoads  = obs.Default().Counter("resilience.checkpoint.loads")
	obsCkptStale  = obs.Default().Counter("resilience.checkpoint.stale")
	obsCkptPurged = obs.Default().Counter("resilience.checkpoint.purged")
)

// Checkpoint is the envelope persisted per job under <dir>/<job>.json.
// The Payload is measurement-specific (walk.MixingCheckpoint,
// expansion.Checkpoint, or a finished result); the
// Fingerprint ties it to the exact configuration that produced it, so a
// run with different parameters never resumes stale state.
type Checkpoint struct {
	Schema      string          `json:"schema"`
	Job         string          `json:"job"`
	Fingerprint string          `json:"fingerprint"`
	Status      string          `json:"status"`
	Attempts    int             `json:"attempts,omitempty"`
	Payload     json.RawMessage `json:"payload,omitempty"`
}

// SetPayload marshals v into the checkpoint payload. encoding/json
// formats float64 with the shortest round-tripping representation, so
// exact measurement state (curves, finished rows) survives the trip
// bit-for-bit.
func (c *Checkpoint) SetPayload(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resilience: marshal payload for %q: %w", c.Job, err)
	}
	c.Payload = data
	return nil
}

// DecodePayload unmarshals the checkpoint payload into v.
func (c *Checkpoint) DecodePayload(v any) error {
	if len(c.Payload) == 0 {
		return fmt.Errorf("resilience: checkpoint %q has no payload", c.Job)
	}
	if err := json.Unmarshal(c.Payload, v); err != nil {
		return fmt.Errorf("resilience: decode payload for %q: %w", c.Job, err)
	}
	return nil
}

// Store persists checkpoints under one directory, one JSON file per
// job, every write atomic (temp file + fsync + rename) so a crash mid
// write never corrupts previously saved state.
type Store struct {
	dir string
}

// NewStore returns a store rooted at dir. The directory is created on
// the first Save.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a job's checkpoint is stored at. Job names are
// sanitized to a flat filename so callers can key checkpoints by
// "<job>/<dataset>" without escaping the store root.
func (s *Store) Path(job string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, job)
	return filepath.Join(s.dir, clean+".json")
}

// Save atomically persists c (filling in the schema). A crashed save
// leaves at worst an orphaned temp file, never a truncated checkpoint.
func (s *Store) Save(c *Checkpoint) error {
	if c.Job == "" {
		return errors.New("resilience: checkpoint without a job name")
	}
	c.Schema = CheckpointSchema
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("resilience: marshal checkpoint %q: %w", c.Job, err)
	}
	if err := WriteFileAtomic(s.Path(c.Job), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("resilience: save checkpoint %q: %w", c.Job, err)
	}
	obsCkptSaves.Inc()
	return nil
}

// Load returns the job's checkpoint, or (nil, nil) when none exists.
// A checkpoint whose fingerprint differs from want is stale state from
// another configuration: it is ignored (nil, nil) and counted, never
// resumed. A corrupt or schema-incompatible file is an error — silently
// recomputing would mask a bug in the save path.
func (s *Store) Load(job, want string) (*Checkpoint, error) {
	data, err := os.ReadFile(s.Path(job))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resilience: load checkpoint %q: %w", job, err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("resilience: checkpoint %q is corrupt: %w", job, err)
	}
	if c.Schema != CheckpointSchema {
		return nil, fmt.Errorf("resilience: checkpoint %q has schema %q, want %q", job, c.Schema, CheckpointSchema)
	}
	if c.Status != StatusDone && c.Status != StatusPartial {
		return nil, fmt.Errorf("resilience: checkpoint %q has status %q", job, c.Status)
	}
	if want != "" && c.Fingerprint != want {
		obsCkptStale.Inc()
		return nil, nil
	}
	obsCkptLoads.Inc()
	return &c, nil
}

// Remove deletes the job's checkpoint; removing a missing checkpoint is
// not an error.
func (s *Store) Remove(job string) error {
	err := os.Remove(s.Path(job))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("resilience: remove checkpoint %q: %w", job, err)
	}
	if err == nil {
		obsCkptPurged.Inc()
	}
	return nil
}

// Fingerprint digests its parts with FNV-1a into a short hex token.
// Checkpoint producers feed it every parameter the payload depends on
// (job, dataset, seed, sampling knobs), so any configuration change
// invalidates old state instead of resuming it.
func Fingerprint(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so readers (and crashed writers) only ever observe
// the old content or the complete new content — never a truncated file.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("resilience: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("resilience: atomic write %s: %s: %w", path, step, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: atomic write %s: close: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resilience: atomic write %s: rename: %w", path, err)
	}
	return nil
}
