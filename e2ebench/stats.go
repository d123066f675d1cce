package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples above
// the q quantile, the condition for reporting that quantile.
func supports(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// quantile returns the nearest-rank q quantile of samples (which it sorts in
// place); 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), q)-1]
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailLevels are the percentiles a tail figure may be reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tail returns the highest percentile level in tailLevels that samples
// support and the value at it; ok is false when none is supported.
func tail(samples []float64) (level, value float64, ok bool) {
	for _, q := range tailLevels {
		if supports(len(samples), q) {
			return q, quantile(samples, q), true
		}
	}
	return 0, 0, false
}

// supportedQuantile is quantile, but 0 when the samples do not support q
// (fewer than minBeyond samples beyond it).
func supportedQuantile(samples []float64, q float64) float64 {
	if !supports(len(samples), q) {
		return 0
	}
	return quantile(samples, q)
}
