package resilience

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Fatalf("content = %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("temp files left behind: %v", names)
	}
}

func TestFingerprintDistinguishesParts(t *testing.T) {
	a := Fingerprint("tableI", "wiki-vote", 1, true)
	b := Fingerprint("tableI", "wiki-vote", 1, false)
	c := Fingerprint("tableI", "wiki-vote", 1, true)
	if a == b {
		t.Fatal("different parts fingerprint identically")
	}
	if a != c {
		t.Fatal("identical parts fingerprint differently")
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", a)
	}
}
