package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.Len() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("Len/Min/Max = %d/%v/%v", e.Len(), e.Min(), e.Max())
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Error("NewECDF(nil): want error")
	}
}

func TestECDFFromInts(t *testing.T) {
	e, err := NewECDFFromInts([]int{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.At(3); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("At(3) = %v, want 2/3", got)
	}
}

func TestECDFQuantile(t *testing.T) {
	e, err := NewECDF([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ q, want float64 }{
		{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40},
	}
	for _, tt := range tests {
		got, err := e.Quantile(tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := e.Quantile(-0.1); err == nil {
		t.Error("Quantile(-0.1): want error")
	}
	if _, err := e.Quantile(1.1); err == nil {
		t.Error("Quantile(1.1): want error")
	}
}

func TestECDFPoints(t *testing.T) {
	e, err := NewECDF([]float64{1, 1, 2, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	xs, fs := e.Points()
	wantX := []float64{1, 2, 3}
	wantF := []float64{2.0 / 6, 3.0 / 6, 1}
	if len(xs) != 3 {
		t.Fatalf("Points len = %d, want 3", len(xs))
	}
	for i := range xs {
		if xs[i] != wantX[i] || math.Abs(fs[i]-wantF[i]) > 1e-12 {
			t.Errorf("Points[%d] = (%v,%v), want (%v,%v)", i, xs[i], fs[i], wantX[i], wantF[i])
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Count() != 0 {
		t.Error("zero summary not empty")
	}
	for _, x := range []float64{2, 4, 6} {
		s.Add(x)
	}
	if s.Count() != 3 || s.Min() != 2 || s.Max() != 6 {
		t.Errorf("summary = count %d min %v max %v", s.Count(), s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-4) > 1e-12 {
		t.Errorf("Mean = %v, want 4", s.Mean())
	}
	if math.Abs(s.Variance()-8.0/3) > 1e-12 {
		t.Errorf("Variance = %v, want 8/3", s.Variance())
	}
	if math.Abs(s.StdDev()-math.Sqrt(8.0/3)) > 1e-12 {
		t.Errorf("StdDev = %v", s.StdDev())
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, all Summary
	xs := []float64{1, 5, 2, 8, 3}
	for i, x := range xs {
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged summary differs: %+v vs %+v", a, all)
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Errorf("merged mean %v, want %v", a.Mean(), all.Mean())
	}
	var empty Summary
	a.Merge(empty) // no-op
	if a.Count() != all.Count() {
		t.Error("merging empty summary changed count")
	}
	var c Summary
	c.Merge(all)
	if c.Count() != all.Count() {
		t.Error("merging into empty summary failed")
	}
}

func TestKeyedSummary(t *testing.T) {
	k := NewKeyedSummary()
	k.Add(10, 1)
	k.Add(10, 3)
	k.Add(20, 5)
	if k.Len() != 2 {
		t.Fatalf("Len = %d, want 2", k.Len())
	}
	keys := k.Keys()
	if len(keys) != 2 || keys[0] != 10 || keys[1] != 20 {
		t.Errorf("Keys = %v", keys)
	}
	s, ok := k.Get(10)
	if !ok || s.Count() != 2 || s.Mean() != 2 {
		t.Errorf("Get(10) = %+v ok=%v", s, ok)
	}
	if _, ok := k.Get(99); ok {
		t.Error("Get(99) = ok, want missing")
	}

	other := NewKeyedSummary()
	other.Add(10, 5)
	other.Add(30, 7)
	k.Merge(other)
	if k.Len() != 3 {
		t.Errorf("after merge Len = %d, want 3", k.Len())
	}
	s, _ = k.Get(10)
	if s.Count() != 3 || s.Max() != 5 {
		t.Errorf("merged Get(10) = %+v", s)
	}

	// Keys across table pages, far apart, on a zero KeyedSummary.
	var sparse KeyedSummary
	for _, key := range []int64{70000, 0, 256, 255, 70000} {
		sparse.Add(key, float64(key))
	}
	if keys := sparse.Keys(); !slices.Equal(keys, []int64{0, 255, 256, 70000}) || sparse.Len() != 4 {
		t.Errorf("sparse Keys = %v, Len = %d", keys, sparse.Len())
	}
	if s, ok := sparse.Get(70000); !ok || s.Count() != 2 || s.Mean() != 70000 {
		t.Errorf("sparse Get(70000) = %+v ok=%v", s, ok)
	}
	for _, key := range []int64{-1, 257, 30000, 1 << 40} {
		if _, ok := sparse.Get(key); ok {
			t.Errorf("sparse Get(%d) = ok, want missing", key)
		}
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 11} {
		h.Add(x)
	}
	counts := h.Counts()
	want := []int64{2, 1, 0, 0, 1}
	for i := range counts {
		if counts[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, counts[i], want[i])
		}
	}
	under, over := h.Outliers()
	if under != 1 || over != 2 {
		t.Errorf("Outliers = %d,%d, want 1,2", under, over)
	}
	if c := h.BinCenter(0); math.Abs(c-1) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("NewHistogram(bins=0): want error")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("NewHistogram(empty range): want error")
	}
}

func TestPearson(t *testing.T) {
	got, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson(perfect) = %v, want 1", got)
	}
	got, err = Pearson([]float64{1, 2, 3}, []float64{6, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson(anti) = %v, want -1", got)
	}
	got, err = Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got) {
		t.Errorf("Pearson(constant) = %v, want NaN", got)
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Pearson(mismatch): want error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("Pearson(short): want error")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform gives rank correlation 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 512, 100000}
	got, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(monotone) = %v, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	got, err := Spearman([]float64{1, 2, 2, 3}, []float64{10, 20, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(tied identical) = %v, want 1", got)
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Spearman(mismatch): want error")
	}
}

func TestRanksAverageTies(t *testing.T) {
	r := ranks([]float64{10, 20, 10, 30})
	want := []float64{1.5, 3, 1.5, 4}
	for i := range r {
		if r[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

// Property: ECDF.At is monotone and hits 0/1 at the extremes; Quantile and
// At are near-inverse.
func TestECDFQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		if e.At(e.Min()-1) != 0 || e.At(e.Max()) != 1 {
			return false
		}
		prev := -1.0
		sort.Float64s(xs)
		for _, x := range xs {
			cur := e.At(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Summary.Merge equals adding all observations to one summary.
func TestSummaryMergeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		var a, b, all Summary
		for i := 0; i < n; i++ {
			x := rng.Float64()*200 - 100
			all.Add(x)
			if rng.Intn(2) == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.Count() == all.Count() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression: Add(NaN) used to panic — NaN fails both range comparisons,
// so the bin-index conversion produced a huge negative index. Property:
// every sample in a mix of finite and NaN values is accounted for exactly
// once across bins, outliers, and the invalid bucket.
func TestHistogramNaNQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := NewHistogram(-5, 5, 1+rng.Intn(10))
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(200)
		var nan int64
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 5
			if rng.Intn(4) == 0 {
				x = math.NaN()
				nan++
			}
			h.Add(x)
		}
		var binned int64
		for _, c := range h.Counts() {
			binned += c
		}
		under, over := h.Outliers()
		return h.Invalid() == nan && binned+under+over+h.Invalid() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
