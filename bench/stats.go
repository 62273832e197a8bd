package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the middle two when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics guide, §1).
const minTail = 10

// percentile returns the q-quantile of sorted by nearest rank. When fewer
// than minTail samples lie beyond q it falls back to the highest quantile
// that has them (never below the median) and returns that quantile as used.
func percentile(sorted []float64, q float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, q
	}
	if q > 0.5 && float64(n)*(1-q) < minTail {
		q = math.Max(0.5, 1-float64(minTail)/float64(n))
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(n-1, i))
	return sorted[i], q
}

// quartiles matches Python's statistics.quantiles(vs, n=4) (exclusive
// method), the definition the repeatability criterion uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
