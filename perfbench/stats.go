package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 of 200 samples is two observations, not a tail.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and false when fewer than minTail samples lie
// beyond it. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minTail {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[rank-1], true
}

// median is percentile(samples, 0.5) without the tail rule, for values
// aggregated from a handful of repetitions (set-up times, per-round
// throughputs) where every repetition is itself a long measurement.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// series is a growable sample set in one unit.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }
