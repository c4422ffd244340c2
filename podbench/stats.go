package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail metric may report, highest
// first. The benchmark reports the highest one that still has at least
// minBeyond samples above it, so the tail is never a single outlier.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 85, 80, 75, 50}

// minBeyond is how many samples must lie above the reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from bumping an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples strictly above its nearest-rank position. It fails
// when n is too small for even the median to qualify.
func tailPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples are too few for a tail percentile", n)
}

// percentile returns the nearest-rank percentile p of xs (xs need not be
// sorted; it is not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// median is the midpoint median (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latency summarizes one set of latency samples (in milliseconds): the
// median, the tail at the highest percentile with minBeyond samples beyond
// it, and which percentile that was.
type latency struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	Tail   float64 `json:"tail_ms"`
	TailAt float64 `json:"tail_percentile"`
}

func summarize(ms []float64) (latency, error) {
	p, err := tailPercentile(len(ms))
	if err != nil {
		return latency{}, err
	}
	return latency{N: len(ms), P50: median(ms), Tail: percentile(ms, p), TailAt: p}, nil
}
