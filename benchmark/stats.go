package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted values by
// the nearest-rank rule: the smallest value with at least p percent of
// the sample at or below it. An empty sample gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the middle value (the mean of the two middle values of
// an even sample) without disturbing the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread is (max − min) / median: the repeatability figure -repeat
// prints per metric.
func spread(values []float64) float64 {
	m := median(values)
	if len(values) == 0 || m == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / math.Abs(m)
}

// quartileSpread is the distance between the first and the third
// quartile as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives: the figure the benchmark
// contract compares with a metric's bound.
func quartileSpread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		pos := float64(i*(len(s)+1)) / 4 // 1-based, exclusive method
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}
