//go:build unix

package jobs

import (
	"path/filepath"
	"testing"
)

// TestSyncDirReportsMissingDirectory: syncDir syncs an existing
// directory and returns the error of one that is gone, which
// WriteFileAtomic passes on.
func TestSyncDirReportsMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("sync %s: %v", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "gone")); err == nil {
		t.Fatal("sync of a missing directory: want error")
	}
}
