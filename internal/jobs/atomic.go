package jobs

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so readers (and crashed writers) only ever observe
// the old content or the complete new content — never a truncated file.
// On unix it then fsyncs the directory, so that once it returns nil the
// new content survives a power loss too. It backs every cache entry,
// artifact file and METRICS.json write.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("jobs: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	// Any failure past this point must not leave the temp file behind.
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("jobs: atomic write %s: %s: %w", path, step, err)
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
		return fmt.Errorf("jobs: atomic write %s: close: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("jobs: atomic write %s: rename: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("jobs: atomic write %s: sync directory: %w", path, err)
	}
	return nil
}
