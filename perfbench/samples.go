package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported. A percentile resting on fewer is one or two unlucky
// operations, not a property of the system.
const minBeyond = 10

// samples is one latency series: raw per-operation durations, kept
// whole so quantiles are exact. engine's metrics.Histogram is not used
// here: its power-of-two buckets would hide a 40% change.
type samples struct {
	d      []time.Duration
	sorted bool
	// failed counts operations that failed. A failed operation misses
	// every latency limit, so it ranks above every duration.
	failed int
}

func (s *samples) add(d time.Duration) {
	s.d = append(s.d, d)
	s.sorted = false
}

// n counts every operation, failed ones included.
func (s *samples) n() int { return len(s.d) + s.failed }

// quantile returns the exact nearest-rank q-quantile (0 < q < 1) and
// whether it may be reported: false when fewer than minBeyond samples
// lie above it, or when it falls among the failed operations.
func (s *samples) quantile(q float64) (time.Duration, bool) {
	n := s.n()
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minBeyond || rank > len(s.d) {
		return 0, false
	}
	if !s.sorted {
		sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
		s.sorted = true
	}
	return s.d[rank-1], true
}

// sum returns the total of every completed operation's duration.
func (s *samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// median returns the middle of a set of measurements (the mean of the
// middle two for an even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
