package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a tail percentile needs above it before it
// is reported: with fewer, the "percentile" is just the largest few samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
// A tail percentile (p > 50) is reported only when at least minBeyond
// samples lie beyond it; ok is false otherwise, and for an empty sample.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && len(s)-rank < minBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// median is the middle value of xs (the mean of the middle two for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its extrapolation for tiny samples): that
// is the rule the spread of a metric is judged by. A sample of fewer than
// two values has no spread: both quartiles are its median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m, n := len(s), len(s)+1, 4
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
