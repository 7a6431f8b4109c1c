//go:build !unix

package jobs

// syncDir does nothing where directories cannot be opened for an fsync.
func syncDir(string) error { return nil }
