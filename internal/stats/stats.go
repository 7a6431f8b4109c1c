// Package stats provides the small statistical toolkit the measurement
// experiments share: empirical CDFs (Figure 2 of the paper), min/mean/max
// aggregation keyed by set size (Figures 3 and 4), quantile summaries, and
// rank correlations for the cross-property analysis in §V.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied, then sorted).
func NewECDF(samples []float64) (*ECDF, error) {
	if len(samples) == 0 {
		return nil, errors.New("stats: ecdf needs at least one sample")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// NewECDFFromInts builds an ECDF from integer samples.
func NewECDFFromInts(samples []int) (*ECDF, error) {
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
	}
	return NewECDF(fs)
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile for q in [0, 1] using the
// nearest-rank method.
func (e *ECDF) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if q == 0 {
		return e.sorted[0], nil
	}
	rank := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return e.sorted[rank], nil
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }

// Min returns the smallest sample.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Points returns the (x, F(x)) step points of the ECDF at the distinct
// sample values, suitable for plotting Figure 2 style curves.
func (e *ECDF) Points() (xs, fs []float64) {
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); i++ {
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		fs = append(fs, float64(i+1)/n)
	}
	return xs, fs
}

// Summary is a running min/mean/max/count accumulator. The zero value is
// ready to use.
type Summary struct {
	count      int64
	sum, sumSq float64
	min, max   float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	s.sum += x
	// The conversion rounds the square on its own, so that no
	// architecture fuses it into the addition (scripts/fmacheck.sh).
	s.sumSq += float64(x * x)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.count }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Variance returns the population variance, or 0 if fewer than 2 samples.
func (s *Summary) Variance() float64 {
	if s.count < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.count) - m*m
	if v < 0 {
		return 0 // numerical guard
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds another summary into s.
func (s *Summary) Merge(o Summary) {
	if o.count == 0 {
		return
	}
	if s.count == 0 {
		*s = o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
	s.sumSq += o.sumSq
}

// KeyedSummary aggregates observations grouped by a non-negative int64
// key — the paper's "for each unique envelope size, the min/mean/max
// neighbor count" aggregation (Figure 3). Keys index a table of pages of
// keyPage summaries, each allocated when its first key arrives, so Add
// allocates nothing per new key, Keys walks the table in ascending order
// without a sort, and keys spread thinly over a large range (envelope
// sizes of a few cores on a million-node graph) cost a page each rather
// than a slot per possible key. The zero value is ready to use.
type KeyedSummary struct {
	pages [][]Summary
	nkeys int
}

// keyPage is the number of keys one KeyedSummary page holds.
const keyPage = 256

// NewKeyedSummary returns an empty keyed aggregator.
func NewKeyedSummary() *KeyedSummary {
	return &KeyedSummary{}
}

// slot returns key's summary, adding its page if it has none yet. It
// panics on a negative key.
func (k *KeyedSummary) slot(key int64) *Summary {
	if key < 0 {
		panic(fmt.Sprintf("stats: keyed summary key %d is negative", key))
	}
	p := key / keyPage
	if p >= int64(len(k.pages)) {
		k.pages = append(k.pages, make([][]Summary, p+1-int64(len(k.pages)))...)
	}
	if k.pages[p] == nil {
		k.pages[p] = make([]Summary, keyPage)
	}
	s := &k.pages[p][key%keyPage]
	if s.count == 0 {
		k.nkeys++
	}
	return s
}

// Add folds observation x into the group for key, which must not be
// negative.
func (k *KeyedSummary) Add(key int64, x float64) {
	k.slot(key).Add(x)
}

// Merge folds another keyed summary into k.
func (k *KeyedSummary) Merge(o *KeyedSummary) {
	for _, key := range o.Keys() {
		s, _ := o.Get(key)
		k.slot(key).Merge(s)
	}
}

// Keys returns the keys in ascending order.
func (k *KeyedSummary) Keys() []int64 {
	keys := make([]int64, 0, k.nkeys)
	for p, page := range k.pages {
		for i := range page {
			if page[i].count != 0 {
				keys = append(keys, int64(p)*keyPage+int64(i))
			}
		}
	}
	return keys
}

// Get returns the summary for key and whether it exists. The returned
// summary is a copy.
func (k *KeyedSummary) Get(key int64) (Summary, bool) {
	if key < 0 || key/keyPage >= int64(len(k.pages)) {
		return Summary{}, false
	}
	page := k.pages[key/keyPage]
	if page == nil || page[key%keyPage].count == 0 {
		return Summary{}, false
	}
	return page[key%keyPage], true
}

// Len returns the number of distinct keys.
func (k *KeyedSummary) Len() int { return k.nkeys }

// Histogram counts samples into uniform-width bins over [lo, hi].
type Histogram struct {
	lo, hi  float64
	counts  []int64
	under   int64
	over    int64
	invalid int64
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram bounds [%v,%v) empty", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int64, bins)}, nil
}

// Add records one sample. NaN samples — reachable from any measurement
// that feeds a Pearson correlation through, which documents a NaN
// return on zero variance — fall into a separate invalid bucket instead
// of panicking: NaN fails both range comparisons, and converting it to a
// bin index would produce an out-of-range value.
func (h *Histogram) Add(x float64) {
	switch {
	case math.IsNaN(x):
		h.invalid++
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
		if i == len(h.counts) {
			i--
		}
		h.counts[i]++
	}
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Outliers returns the number of samples below lo and at-or-above hi.
// NaN samples are counted separately; see Invalid.
func (h *Histogram) Outliers() (under, over int64) { return h.under, h.over }

// Invalid returns the number of NaN samples recorded, which belong to no
// bin and neither outlier side.
func (h *Histogram) Invalid() int64 { return h.invalid }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.counts))
	return h.lo + (float64(i)+0.5)*w
}

// PowerLawAlpha fits the exponent of a discrete power-law tail
// P(X = x) ∝ x^(-α) to the samples with x >= xmin, using the standard
// maximum-likelihood estimator with the ½-continuity correction
// (Clauset–Shalizi–Newman):
//
//	α ≈ 1 + n / Σ ln(x_i / (xmin - ½))
//
// It is used to check that the synthetic dataset stand-ins reproduce the
// heavy-tailed degree distributions of the crawls they replace. The
// second return value is the number of tail samples used.
func PowerLawAlpha(samples []float64, xmin float64) (float64, int, error) {
	if xmin <= 0.5 {
		return 0, 0, fmt.Errorf("stats: xmin %v must exceed 0.5", xmin)
	}
	var logSum float64
	n := 0
	for _, x := range samples {
		if x < xmin {
			continue
		}
		logSum += math.Log(x / (xmin - 0.5))
		n++
	}
	if n < 2 {
		return 0, n, fmt.Errorf("stats: power-law fit needs >= 2 tail samples, got %d", n)
	}
	if logSum <= 0 {
		return 0, n, errors.New("stats: degenerate tail (all samples at xmin)")
	}
	return 1 + float64(n)/logSum, n, nil
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It errs on mismatched or too-short inputs and returns NaN when
// either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: pearson length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: pearson needs >= 2 samples")
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if vx <= 0 || vy <= 0 {
		return math.NaN(), nil
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Spearman returns the Spearman rank correlation of two equal-length
// samples, using average ranks for ties.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: spearman length mismatch %d vs %d", len(xs), len(ys))
	}
	return Pearson(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
