package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileExclusive is the q-quantile of v by the "exclusive" method
// (position q·(n+1), linear interpolation, clamped to the extremes):
// the one Python's statistics.quantiles uses by default, so a spread
// computed here equals the one the driver computes. NaN for empty v.
func quantileExclusive(v []float64, q float64) float64 {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1 // 0-based
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is the 0.5-quantile (the mean of the middle two for even n).
func median(v []float64) float64 { return quantileExclusive(v, 0.5) }

// percentile is the nearest-rank p-th percentile (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. With
// n samples, n·(100−p)/100 of them lie beyond it — 100 windows leave
// ten beyond the p90.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the benchmark's bounds are sized against.
// 0 for fewer than two samples or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((quantileExclusive(v, 0.75) - quantileExclusive(v, 0.25)) / m)
}

// dist summarises repeated timings of one operation.
type dist struct{ Min, Med, P90 float64 }

func summarize(v []float64) dist {
	s := sorted(v)
	if len(s) == 0 {
		return dist{}
	}
	return dist{Min: s[0], Med: median(s), P90: percentile(s, 90)}
}
