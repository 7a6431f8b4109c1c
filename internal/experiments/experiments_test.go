package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
)

// sharedOpts returns quick options with a per-test shared cache.
func sharedOpts() Options {
	return Options{Quick: true, Seed: 7}
}

func TestTableIQuick(t *testing.T) {
	res, err := TableI(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(datasets.ByBand(datasets.Small)) {
		t.Fatalf("rows = %d, want one per small dataset", len(res.Rows))
	}
	var fastMu, slowMu []float64
	for _, row := range res.Rows {
		if row.SLEM <= 0 || row.SLEM >= 1.0001 {
			t.Errorf("%s: mu = %v out of range", row.Name, row.SLEM)
		}
		if row.Nodes <= 0 || row.Edges <= 0 {
			t.Errorf("%s: empty graph", row.Name)
		}
		switch row.Class {
		case datasets.FastMixing:
			fastMu = append(fastMu, row.SLEM)
		case datasets.SlowMixing:
			slowMu = append(slowMu, row.SLEM)
		}
	}
	// Shape: every slow mixer's mu exceeds every fast mixer's mu.
	for _, f := range fastMu {
		for _, s := range slowMu {
			if f >= s {
				t.Errorf("fast mu %v >= slow mu %v: Table I ordering broken", f, s)
			}
		}
	}
	tab, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "wiki-vote") {
		t.Error("rendered table missing dataset")
	}
}

func TestFigure1Quick(t *testing.T) {
	res, err := Figure1(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PanelA) == 0 || len(res.PanelB) == 0 {
		t.Fatalf("panels = %d/%d", len(res.PanelA), len(res.PanelB))
	}
	for _, s := range append(res.PanelA, res.PanelB...) {
		if err := s.Validate(); err != nil {
			t.Errorf("series %s: %v", s.Name, err)
		}
		// TVD curves start high and end lower.
		if s.Y[0] < s.Y[len(s.Y)-1] {
			t.Errorf("series %s: TVD increased from %v to %v", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
	// Per-source ECDFs exist for every dataset and are valid monotone
	// step functions.
	if len(res.SourceECDFs) != len(res.PanelA)+len(res.PanelB) {
		t.Errorf("source ECDFs = %d, want %d", len(res.SourceECDFs), len(res.PanelA)+len(res.PanelB))
	}
	for _, s := range res.SourceECDFs {
		if err := s.Validate(); err != nil {
			t.Errorf("source ecdf %s: %v", s.Name, err)
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("source ecdf %s not monotone", s.Name)
				break
			}
		}
	}
	// Shape: the Physics co-authorship graphs mix slower than wiki-vote —
	// wiki-vote reaches eps=0.1 strictly sooner (0 means never reached).
	wv := res.MixingTimes["wiki-vote"]
	if wv == 0 {
		t.Fatal("wiki-vote did not mix to 0.1 within budget")
	}
	for _, slow := range []string{"physics-1", "physics-2"} {
		if st := res.MixingTimes[slow]; st != 0 && st <= wv {
			t.Errorf("%s mixed in %d <= wiki-vote %d", slow, st, wv)
		}
	}
}

func TestFigure2Quick(t *testing.T) {
	res, err := Figure2(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PanelA) == 0 || len(res.PanelB) == 0 {
		t.Fatalf("panels = %d/%d", len(res.PanelA), len(res.PanelB))
	}
	for _, s := range append(res.PanelA, res.PanelB...) {
		if err := s.Validate(); err != nil {
			t.Errorf("series %s: %v", s.Name, err)
		}
		last := s.Y[len(s.Y)-1]
		if last < 0.9999 {
			t.Errorf("series %s: ECDF ends at %v, want 1", s.Name, last)
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("series %s: ECDF not monotone at %d", s.Name, i)
			}
		}
	}
	if res.Degeneracy["wiki-vote"] == 0 {
		t.Error("missing degeneracy for wiki-vote")
	}
}

func TestTableIIQuick(t *testing.T) {
	res, err := TableII(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("quick rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		prevHonest := 101.0
		for _, f := range res.Thresholds {
			c, ok := row.Cells[f]
			if !ok {
				t.Fatalf("%s: missing cell f=%v", row.Name, f)
			}
			if c.HonestAcceptPct < 0 || c.HonestAcceptPct > 100 {
				t.Errorf("%s f=%v: honest %% = %v", row.Name, f, c.HonestAcceptPct)
			}
			// Shape: honest acceptance decreases as f grows.
			if c.HonestAcceptPct > prevHonest+1e-9 {
				t.Errorf("%s: honest %% increased at f=%v: %v -> %v",
					row.Name, f, prevHonest, c.HonestAcceptPct)
			}
			prevHonest = c.HonestAcceptPct
			if c.SybilsPerAttackEdge < 0 {
				t.Errorf("%s f=%v: negative sybils per edge", row.Name, f)
			}
		}
		small := row.Cells[res.Thresholds[0]]
		if small.SybilsPerAttackEdge > 25 {
			t.Errorf("%s: sybils per edge = %v, want bounded", row.Name, small.SybilsPerAttackEdge)
		}
	}
	// Shape contrast, as in the paper's Table II: near-total honest
	// acceptance on the fast mixer, visibly degraded acceptance on the
	// slow one whose expansion violates GateKeeper's assumption.
	slow := res.Rows[0].Cells[res.Thresholds[0]]
	fast := res.Rows[1].Cells[res.Thresholds[0]]
	if fast.HonestAcceptPct < 90 {
		t.Errorf("fast graph honest %% = %v, want >= 90", fast.HonestAcceptPct)
	}
	if slow.HonestAcceptPct < 40 {
		t.Errorf("slow graph honest %% = %v, want >= 40", slow.HonestAcceptPct)
	}
	if fast.HonestAcceptPct <= slow.HonestAcceptPct {
		t.Errorf("fast honest %% %v <= slow %v", fast.HonestAcceptPct, slow.HonestAcceptPct)
	}
	tab, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Honest %") {
		t.Error("rendered table missing metric rows")
	}
}

func TestFigure3Quick(t *testing.T) {
	res, err := Figure3(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != len(datasets.ByBand(datasets.Small)) {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	for _, p := range res.Panels {
		for _, s := range []struct {
			name   string
			series interface{ Validate() error }
		}{{"min", &p.Min}, {"mean", &p.Mean}, {"max", &p.Max}} {
			if err := s.series.Validate(); err != nil {
				t.Errorf("%s/%s: %v", p.Name, s.name, err)
			}
		}
		// min <= mean <= max pointwise.
		for i := range p.Mean.Y {
			if p.Min.Y[i] > p.Mean.Y[i]+1e-9 || p.Mean.Y[i] > p.Max.Y[i]+1e-9 {
				t.Errorf("%s: min/mean/max out of order at %d", p.Name, i)
			}
		}
	}
}

func TestFigure4Quick(t *testing.T) {
	res, err := Figure4(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PanelA) != 2 || len(res.PanelB) != 2 {
		t.Fatalf("quick panels = %d/%d, want 2/2", len(res.PanelA), len(res.PanelB))
	}
	// Shape: the fast OSNs of panel B expand better over small sets than
	// the slow co-authorship graphs of panel A.
	slow := res.MeanAlphaSmall["physics-1"]
	fast := res.MeanAlphaSmall["wiki-vote"]
	if fast <= slow {
		t.Errorf("mean alpha wiki-vote %v <= physics-1 %v", fast, slow)
	}
}

func TestFigure5Quick(t *testing.T) {
	res, err := Figure5(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 3 {
		t.Fatalf("quick panels = %d, want 3", len(res.Panels))
	}
	for _, p := range res.Panels {
		if p.Degeneracy < 1 {
			t.Errorf("%s: degeneracy %d", p.Name, p.Degeneracy)
		}
		// ν̃_k decreases with k.
		for i := 1; i < len(p.RelativeSize.Y); i++ {
			if p.RelativeSize.Y[i] > p.RelativeSize.Y[i-1]+1e-9 {
				t.Errorf("%s: nu-tilde increased at k=%v", p.Name, p.RelativeSize.X[i])
			}
		}
		cls, err := classOf(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Shape: slow mixers end with multiple cores, fast with one.
		switch cls {
		case datasets.SlowMixing:
			if p.TopComponents < 2 {
				t.Errorf("%s (slow): top cores = %d, want >= 2", p.Name, p.TopComponents)
			}
		case datasets.FastMixing:
			if p.TopComponents != 1 {
				t.Errorf("%s (fast): top cores = %d, want 1", p.Name, p.TopComponents)
			}
		}
	}
}

func TestCrossPropertyQuick(t *testing.T) {
	res, err := CrossProperty(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(res.Reports))
	}
	if res.Analysis.MixingVsTopCoreNu >= 0 {
		t.Errorf("mixing↔core correlation = %v, want negative", res.Analysis.MixingVsTopCoreNu)
	}
	if res.Analysis.MixingVsExpansion >= 0 {
		t.Errorf("mixing↔expansion correlation = %v, want negative", res.Analysis.MixingVsExpansion)
	}
	sum, err := res.SummaryTable()
	if err != nil {
		t.Fatal(err)
	}
	if sum.NumRows() != 4 {
		t.Errorf("summary rows = %d", sum.NumRows())
	}
	corr, err := res.CorrelationTable()
	if err != nil {
		t.Fatal(err)
	}
	if corr.NumRows() != 4 {
		t.Errorf("correlation rows = %d", corr.NumRows())
	}
}

func TestSharedCacheReused(t *testing.T) {
	opts := sharedOpts()
	opts.fill()
	g1, err := opts.graphFor("wiki-vote")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := opts.graphFor("wiki-vote")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("cache not shared within options")
	}
	if _, err := opts.graphFor("nope"); err == nil {
		t.Error("graphFor(nope): want error")
	}
}

// Regression: TableI, Figure2, Figure5, FutureWorkModulated, and
// AttackerModels used to ignore cancellation entirely, so a timed-out
// runner job kept measuring (and later printing) in its abandoned
// goroutine.
func TestRunnersHonorCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := sharedOpts()
	if _, err := TableI(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("TableI: %v, want context.Canceled", err)
	}
	if _, err := Figure1(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure1: %v, want context.Canceled", err)
	}
	if _, err := Figure2(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure2: %v, want context.Canceled", err)
	}
	if _, err := Figure3(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure3: %v, want context.Canceled", err)
	}
	if _, err := Figure4(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure4: %v, want context.Canceled", err)
	}
	if _, err := Figure5(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure5: %v, want context.Canceled", err)
	}
	if _, err := FutureWorkModulated(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("FutureWorkModulated: %v, want context.Canceled", err)
	}
	if _, err := AttackerModels(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("AttackerModels: %v, want context.Canceled", err)
	}
}
