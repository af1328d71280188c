package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// median of xs (sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// method as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what judges a benchmark's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
