package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is one or two outliers, not
// a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and how many samples lie beyond it. It refuses, with an error, a
// percentile that fewer than minBeyond samples lie beyond. xs is not
// modified.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	// The epsilon keeps an exact product such as 90*100/100 from rounding
	// up to the next rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// median is the middle of xs (the mean of the middle two for even
// lengths); it suits small repeat counts such as set-up repetitions, where
// no tail is claimed. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
