package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: an order statistic with fewer samples behind it moves
// with a single slow op.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (0 < p < 1)
// and the number of samples ranked strictly beyond it. ok is false when
// fewer than minBeyond samples lie beyond, in which case the percentile
// must not be reported.
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method, which extrapolates for tiny samples), so the
// spreads it yields match the acceptance computation exactly. It needs
// at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
