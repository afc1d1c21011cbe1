package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// dist summarises one timing sample.
type dist struct {
	n     int
	p50   float64
	tail  float64 // the reported tail percentile's value
	tailQ float64 // which percentile tail is (0.99 when n >= 1000)
}

// summarize applies the reporting rule to xs (left unmodified) with want
// as the tail percentile.
func summarize(xs []float64, want float64) dist {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.p50 = atRank(xs, rankOf(len(xs), 0.5))
	r := tailRank(len(xs), want)
	d.tail, d.tailQ = atRank(xs, r), float64(r)/float64(len(xs))
	return d
}

// rankOf is the 1-based nearest-rank position of quantile q among n.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailRank is the rank of the highest percentile <= want that leaves at
// least minBeyond samples above it; with too few samples for any tail it
// falls back to the median.
func tailRank(n int, want float64) int {
	r := rankOf(n, want)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if med := rankOf(n, 0.5); r < med {
		r = med
	}
	return r
}

func atRank(sorted []float64, r int) float64 { return sorted[r-1] }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs, 0.5).p50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
