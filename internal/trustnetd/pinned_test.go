package trustnetd

import (
	"context"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/spectral"
)

// pinnedFile holds one block per measured graph: a "[graph config]"
// header, then the lines TestMeasurementsPinned renders for it.
const pinnedFile = "testdata/measurements_pinned.txt"

// The perfbench workloads' request configs (perfbench/service.go), at
// seed 1.
var (
	pinnedPaperConfig = MeasureConfig{Seed: 1, Sources: 16, MaxSteps: 50, ExpansionSources: 64, Tolerance: 1e-6, Epsilon: 1e-3}
	pinnedLargeConfig = MeasureConfig{Seed: 1, Sources: 16, MaxSteps: 20, ExpansionSources: 64, Tolerance: 1e-4, Epsilon: 1e-3}
)

var (
	pinnedFingerprintLine = regexp.MustCompile(`(?m)^fingerprint [0-9a-f]{16}$`)
	pinnedMuLine          = regexp.MustCompile(`(?m)^slem: mu = .*$`)
	pinnedResidualLine    = regexp.MustCompile(`(?m)^slem: residual = .*$`)
)

// TestMeasurementsPinned gates every change that claims "same bits": it
// runs the four catalog jobs at perfbench's paper config on every
// dataset stand-in, and at its large config on the large workload's BA
// and clustered-PA graphs, and compares with pinnedFile the mixing,
// expansion and coreness fingerprint lines, the slem job's mu and
// residual lines, and the float bits of μ and of the Ritz residual with
// the Lanczos step count from spectral.SLEMContext at the job's config.
// A change that moves a pin says why in CHANGES.md and updates the file
// with the block this test prints.
func TestMeasurementsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pins hold on amd64; on %s the compiler may fuse x*y + z into one FMA, which moves float bits", runtime.GOARCH)
	}
	data, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	want := parsePinned(string(data))
	check := func(name, config string, g graph.View, cfg MeasureConfig) {
		t.Helper()
		header := "[" + name + " " + config + "]"
		got := renderPinned(t, g, cfg)
		if want[header] != got {
			t.Errorf("%s moved; pinned:\n%s\nnow:\n%s\n%s", header, want[header], header, got)
		}
	}
	for _, sp := range datasets.All() {
		g, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		check(sp.Name, "paper", g, pinnedPaperConfig)
	}
	if testing.Short() {
		t.Log("skipping the large graphs under -short")
		return
	}
	// The large workload's two generated graphs at seed 1.
	ba, err := gen.StreamBA(40000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := gen.StreamClusteredPA(gen.ClusteredPAConfig{Communities: 200, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lg := range []struct {
		name   string
		stream gen.EdgeStream
	}{{"large-ba", ba}, {"large-clustered", clustered}} {
		g, err := gen.Build(lg.stream)
		if err != nil {
			t.Fatal(err)
		}
		check(lg.name, "large", g, pinnedLargeConfig)
	}
}

// TestConfigFingerprintsPinned pins the config half of the four
// catalog jobs' artifact cache keys at perfbench's paper and large
// request configs, resolved the way POST /v1/jobs resolves a request.
// A moved key orphans every cached artifact of that job, so only a
// deliberate jobs.SchemaVersion bump may move them, and it moves all
// eight.
func TestConfigFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		config string
		cfg    MeasureConfig
		want   map[string]string
	}{
		{"paper", pinnedPaperConfig, map[string]string{
			"mixing": "dbfbb4fe6ad10042", "expansion": "59c373292d17860b",
			"coreness": "4bfc0d0e073421e0", "slem": "070bc566d5cfaf8f",
		}},
		{"large", pinnedLargeConfig, map[string]string{
			"mixing": "fcaf0328de6b42a7", "expansion": "fdef405a861f1d16",
			"coreness": "850a91f1b0342d21", "slem": "20b3e4043d3ac702",
		}},
	} {
		reg, err := Jobs(nil, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mixing", "expansion", "coreness", "slem"} {
			j, err := reg.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := j.Fingerprint(); got != tc.want[name] {
				t.Errorf("%s at the %s config: fingerprint %s, pinned %s", name, tc.config, got, tc.want[name])
			}
		}
	}
}

// renderPinned runs the catalog on g under cfg and renders the pinned
// lines, one per line.
func renderPinned(t *testing.T, g graph.View, cfg MeasureConfig) string {
	t.Helper()
	ctx := context.Background()
	reg, err := Jobs(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range []string{"mixing", "expansion", "coreness", "slem"} {
		j, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := j.Run(ctx, jobs.Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := []*regexp.Regexp{pinnedFingerprintLine}
		if name == "slem" {
			res = []*regexp.Regexp{pinnedMuLine, pinnedResidualLine}
		}
		for _, re := range res {
			line := re.FindString(a.Summary)
			if line == "" {
				t.Fatalf("%s summary has no line matching %s:\n%s", name, re, a.Summary)
			}
			if name != "slem" {
				line = name + " " + line
			}
			b.WriteString(line + "\n")
		}
	}
	sl, err := spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: cfg.Tolerance, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "spectral mu %016x residual %016x steps %d\n",
		math.Float64bits(sl.SLEM), math.Float64bits(sl.Residual), sl.Iterations)
	return b.String()
}

// parsePinned splits the pin file into its blocks by header line.
func parsePinned(data string) map[string]string {
	out := map[string]string{}
	var header string
	for _, line := range strings.SplitAfter(data, "\n") {
		switch {
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, "["):
			header = strings.TrimSpace(line)
		default:
			out[header] += line
		}
	}
	return out
}
