package datasets

import (
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
)

func TestRegistryComplete(t *testing.T) {
	specs := All()
	if len(specs) != 15 {
		t.Fatalf("registry has %d datasets, want 15 (Table I)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || seen[s.Name] {
			t.Errorf("bad or duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.PaperNodes <= 0 || s.PaperEdges <= 0 {
			t.Errorf("%s: missing paper sizes", s.Name)
		}
		if s.Class != FastMixing && s.Class != SlowMixing {
			t.Errorf("%s: missing class", s.Name)
		}
		if s.Band != Small && s.Band != Medium && s.Band != Large {
			t.Errorf("%s: missing band", s.Name)
		}
	}
}

func TestAllGenerateConnectedSimple(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			g, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() < 400 {
				t.Errorf("%s: only %d nodes, too small to be meaningful", s.Name, g.NumNodes())
			}
			if !graph.IsConnected(g) {
				t.Errorf("%s: not connected", s.Name)
			}
			if g.MinDegree() < 1 {
				t.Errorf("%s: has isolated node", s.Name)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, err := ByName("wiki-vote")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Errorf("generation not deterministic: %v vs %v", a, b)
	}
}

// TestFingerprintsPinned pins every stand-in's topology. The fingerprint
// is the graph half of every cached artifact's key, so a generator
// change that moves one of these re-keys the cache and moves Table I;
// such a change must update the pins deliberately.
func TestFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"wiki-vote":     "1dbea789d41a4486",
		"epinion":       "e248c2e8820efc21",
		"slashdot-a":    "ee55235e2d2a7ee3",
		"slashdot-b":    "e0d0143585b8b0ba",
		"enron":         "96fe279daed63510",
		"physics-1":     "36674c8b2b5ddeb8",
		"physics-2":     "e256909126259732",
		"physics-3":     "472be40e3bb6c665",
		"rice-grad":     "3295106c91366ebb",
		"dblp":          "41f6894431aa9b6a",
		"facebook-a":    "4f56e8f523aa5abf",
		"facebook-b":    "dcd86576ef7463c6",
		"livejournal-a": "e5e26e7820431478",
		"livejournal-b": "f7143f3fe5815ff0",
		"youtube":       "48f1b9295cedefb7",
	}
	specs := All()
	if len(specs) != len(want) {
		t.Fatalf("registry has %d datasets, %d pinned", len(specs), len(want))
	}
	for _, s := range specs {
		g, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := graph.Fingerprint(g); got != want[s.Name] {
			t.Errorf("%s: fingerprint %s, pinned %s", s.Name, got, want[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("physics-2"); err != nil {
		t.Errorf("ByName(physics-2): %v", err)
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName(nope): want error")
	}
	if !strings.Contains(err.Error(), "unknown dataset") {
		t.Errorf("error %q should mention unknown dataset", err)
	}
}

func TestGroupings(t *testing.T) {
	if got := len(ByBand(Small)); got != 6 {
		t.Errorf("small band = %d, want 6", got)
	}
	if got := len(ByBand(Medium)); got != 3 {
		t.Errorf("medium band = %d, want 3", got)
	}
	if got := len(ByBand(Large)); got != 6 {
		t.Errorf("large band = %d, want 6", got)
	}
	fast, slow := ByClass(FastMixing), ByClass(SlowMixing)
	if len(fast)+len(slow) != 15 {
		t.Errorf("classes partition %d+%d != 15", len(fast), len(slow))
	}
}

func TestStringers(t *testing.T) {
	if FastMixing.String() != "fast-mixing" || SlowMixing.String() != "slow-mixing" {
		t.Error("Class.String mismatch")
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still format")
	}
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Error("SizeBand.String mismatch")
	}
	if SizeBand(42).String() == "" {
		t.Error("unknown band should still format")
	}
}

func TestCache(t *testing.T) {
	var c Cache
	g1, err := c.Get("rice-grad")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Get("rice-grad")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("cache returned distinct graphs for the same name")
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("Get(nope): want error")
	}
}

// The registry's whole point: synthetic fast mixers must measure as
// faster-mixing (smaller SLEM) than synthetic slow mixers.
func TestClassesSeparateBySLEM(t *testing.T) {
	if testing.Short() {
		t.Skip("slem separation is slow")
	}
	mu := func(name string) float64 {
		t.Helper()
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		r, err := spectral.SLEM(g, spectral.Config{Tolerance: 1e-7, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r.SLEM
	}
	fast := mu("wiki-vote")
	slow := mu("physics-1")
	if fast >= slow {
		t.Errorf("SLEM(wiki-vote)=%v >= SLEM(physics-1)=%v; registry classes inverted", fast, slow)
	}
	if slow < 0.95 {
		t.Errorf("SLEM(physics-1)=%v, want close to 1 for a slow mixer", slow)
	}
}
