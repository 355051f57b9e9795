package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer samples than this is noise.
const tailMin = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile in tailPercentiles that leaves at
// least tailMin independent samples beyond it, and returns that
// percentile, its value over xs and the sample count. independent is
// how many of the samples vary independently: len(xs) unless samples
// come in groups that share one cause (the requests of one serving
// episode share one run). With too few samples no percentile
// qualifies and the median is reported (p = 50).
func tail(xs []float64, independent int) (p, v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	for _, q := range tailPercentiles {
		if independent-rank(independent, q/100) >= tailMin {
			return q, quantile(s, q/100), n
		}
	}
	return 50, quantile(s, 0.5), n
}

// percentile returns the q-th percentile (0..100) of xs by the
// nearest-rank rule on sorted data.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), q/100)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quantile is the nearest-rank quantile of already sorted data.
func quantile(s []float64, q float64) float64 {
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // absorb q*n rounding up past an integer
	return min(max(r, 1), n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
