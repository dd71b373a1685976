package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (q in [0,1]) of vs by linear interpolation
// between order statistics; it sorts a copy. Empty input gives 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(vs, n=4)
// gives (exclusive method) — the spread the benchmark contract is judged by.
// Fewer than two values, or a zero median, give 0.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 { // i-th of 3 cut points, exclusive method
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// slope is the least-squares slope of ys over xs (0 when it is undefined).
// The open-loop workload uses it on (due time in s, lag in ms): a backlog
// that grows shows as a positive slope.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durs converts a duration sample to float64s in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
