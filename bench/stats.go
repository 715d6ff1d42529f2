package main

import (
	"math"
	"sort"
)

// summary reports a metric's samples from one run: the median, the
// quartiles, and — because a run has fewer than the ten samples beyond
// a percentile that a tail figure needs — the min and max.
type summary struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// median of sorted samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles of sorted samples by the "exclusive" method of Python's
// statistics.quantiles(n=4), so spreads match what that function gives.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0]
		}
		return math.NaN(), math.NaN()
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// rank is the 1-based nearest-rank position of the pct-th percentile of
// n samples: the smallest rank with at least pct% of the samples at or
// below it.
func rank(n, pct int) int { return max(1, (pct*n+99)/100) }

// p50 is the nearest-rank median of sorted samples (0 when empty).
func p50(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), 50)-1]
}

// tail90 is the nearest-rank p90 when at least ten samples lie beyond
// it, else the max: a p90 with fewer samples past it is not a tail
// figure one can compare across runs.
func tail90(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(n, 90)
	if n-r < 10 {
		return sorted[n-1]
	}
	return sorted[r-1]
}
