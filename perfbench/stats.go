package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must
// have beyond it; with fewer, the percentile is lowered until it does.
const minTail = 10

// dist summarizes one timing sample: its median, its tail percentile
// and how many samples it rests on.
type dist struct {
	N      int
	Median float64
	// Tail is the value at percentile TailPct, the highest percentile up
	// to the one asked for that keeps at least minTail samples beyond it.
	Tail    float64
	TailPct float64
}

// summarize sorts vals in place and returns their median and the tail
// at percentile want (or the highest percentile below it that still has
// minTail samples beyond it). An empty sample yields the zero dist.
func summarize(vals []float64, want float64) dist {
	n := len(vals)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(vals)
	pct := tailPercentile(n, want)
	return dist{N: n, Median: median(vals), Tail: rank(vals, pct), TailPct: pct}
}

// tailPercentile returns the highest percentile p <= want such that at
// least minTail of n samples lie beyond it, never below the median.
func tailPercentile(n int, want float64) float64 {
	p := 100 * (1 - float64(minTail)/float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// median of sorted vals.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// rank is the nearest-rank percentile p of sorted vals.
func rank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// medianOf returns the median of vals without disturbing them.
func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return median(s)
}
