package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. Nearest-rank never interpolates, so every
// reported latency is one that a query actually had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supported reports whether a sample of n supports the p-th percentile:
// at least ten samples must lie beyond it, or the figure is one or two
// outliers rather than a property of the distribution.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank p50 of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method) and statistics.median, because that is how the driver judges the
// benchmark's spread: aa must compute the same numbers it will.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	return q(1), med, q(3)
}
