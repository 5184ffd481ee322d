package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer is decided by a handful of outliers and does
// not repeat from run to run, so it is refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples: the
// smallest value with at least p% of the samples at or below it. It
// refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: need 0 < p < 100 and samples", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median returns the middle value of a small sample (the mean of the
// two middle values for an even count). It is for repeated set-ups and
// layer timings, which are few by design; latency percentiles go
// through percentile.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
