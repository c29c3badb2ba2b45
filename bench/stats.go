package main

import (
	"math"
	"sort"

	"resilientmix/internal/stats"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, 100*q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the acceptance procedure uses for
// the run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// safeDiv is a/b, or 0 when b is 0 (a metric with no samples).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
