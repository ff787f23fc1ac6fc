package main

import (
	"sort"
	"time"
)

// tailPercentile is the highest whole percentile that leaves at least ten
// samples beyond it (by nearest rank) among n samples: the tail a sample
// of that size supports. It is 0 when n is too small for any.
func tailPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	p := 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	return p
}

// percentileMs returns the nearest-rank p-th percentile of the samples in
// milliseconds (the sample at rank ⌈p·n/100⌉), or 0 with no samples.
func percentileMs(samples []time.Duration, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1])
}

// medianMs is the median of the samples in milliseconds.
func medianMs(samples []time.Duration) float64 {
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = ms(d)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the middle value (the mean of the two middle ones for an even
// count), or 0 with no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles is the first quartile, the median and the third quartile of
// xs by nearest rank, for the diagnostics.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p int) float64 {
		rank := (p*len(s) + 99) / 100
		if rank < 1 {
			rank = 1
		}
		return s[rank-1]
	}
	return [3]float64{at(25), median(s), at(75)}
}
