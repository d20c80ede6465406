package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (exclusive: the
// i-th cut sits at position i*(n+1)/4 of the sorted sample, interpolated
// linearly and clamped to the sample), so a spread computed here equals the
// one the driver computes from the same values. One sample is its own
// quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise figure every bound in BENCHMARK.json is judged
// against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and the sample sitting there: with n samples that is
// the (n-10)-th smallest, at percentile 100*(n-10)/n. Fewer than eleven
// samples have no such percentile; the maximum is returned with pct 100 so
// the caller can print that the tail is unresolved at this sample count.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
