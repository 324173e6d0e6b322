package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// samples holds exact per-operation timings (nanoseconds). Percentiles are
// read from the sorted samples themselves, never from buckets.
type samples struct {
	ns     []int64
	sorted bool
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int64, 0, capacity)} }

func (s *samples) add(ns int64) {
	s.ns = append(s.ns, ns)
	s.sorted = false
}

func (s *samples) count() int { return len(s.ns) }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) in
// nanoseconds: the smallest sample with at least p % of the samples at or
// below it.
func (s *samples) percentile(p float64) int64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.ns))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.ns) {
		rank = len(s.ns)
	}
	return s.ns[rank-1]
}

// tails are the tail percentiles a timing may be reported at, lowest first,
// each with the share of the samples that lies beyond it (one in beyond).
var tails = []struct {
	percentile float64
	beyond     int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// supportedTail returns the highest of the tail percentiles that still has
// ten samples or more beyond it in a sample of n, or 0 when not even the
// lowest has: a p99 of 500 samples rests on five of them and is not reported.
func supportedTail(n int) float64 {
	best := 0.0
	for _, t := range tails {
		if n/t.beyond >= 10 {
			best = t.percentile
		}
	}
	return best
}

// cpuTime is the process's user plus system time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
