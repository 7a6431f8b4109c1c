package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/jobs"
)

// quickPinnedFile holds one "job digest" line per quick-battery job.
const quickPinnedFile = "testdata/quick_artifacts_pinned.txt"

// TestQuickArtifactsPinned runs every job of the quick battery at seed 1
// and compares each artifact's content digest (its summary and every
// file it writes) with quickPinnedFile, so a change that claims "same
// bits" for the paper's tables and figures is held to them. attacker is
// left out: it takes most of the battery's time, and
// TestAttackerModelsQuick runs it. A change that moves a pin says why in
// CHANGES.md and updates the file with the table this test prints.
func TestQuickArtifactsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pins hold on amd64; on %s the compiler may fuse x*y + z into one FMA, which moves float bits", runtime.GOARCH)
	}
	data, err := os.ReadFile(quickPinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	reg, err := Jobs(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	moved := false
	for _, j := range reg.Jobs() {
		if j.Name() == "attacker" {
			continue
		}
		a, err := j.Run(context.Background(), jobs.Env{})
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		got := a.ContentDigest()
		fmt.Fprintf(&table, "%s %s\n", j.Name(), got)
		if want[j.Name()] != got {
			t.Errorf("%s: digest %s, pinned %q", j.Name(), got, want[j.Name()])
			moved = true
		}
	}
	if moved {
		t.Logf("quick artifact digests now:\n%s", table.String())
	}
}
