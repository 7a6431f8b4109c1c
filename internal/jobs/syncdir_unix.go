//go:build unix

package jobs

import "os"

// syncDir fsyncs directory dir, so that a rename into it survives a
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
