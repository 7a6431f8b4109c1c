package resilience

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Fingerprint digests its parts with FNV-1a into a short hex token.
// Callers feed it every part an artifact depends on (for the experiment
// runner, each dataset's name and canonical graph fingerprint), so any
// change yields a different token.
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
