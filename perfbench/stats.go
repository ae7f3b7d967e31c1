package main

import (
	"math"
	"sort"
)

// quietHalf returns the half of xs (rounded up) during which the host stole
// the least CPU time, in their original order among equals. A shared host's
// other guests slow this one in bursts that have nothing to do with the code
// under test; comparing two commits on their quiet halves compares the code.
func quietHalf[T any](xs []T, steal func(T) float64) []T {
	q := append([]T(nil), xs...)
	sort.SliceStable(q, func(i, j int) bool { return steal(q[i]) < steal(q[j]) })
	return q[:(len(q)+1)/2]
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 over 200 samples is really the maximum, and the maximum
// is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// which it sorts in place. ok is false when fewer than minBeyond samples lie
// beyond the chosen rank, so the value would rest on a handful of outliers.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return xs[rank-1], true
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); it sorts xs in place and returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean is the arithmetic mean of xs, 0 for an empty slice.
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

// tally counts attempted and failed operations. An operation fails when its
// outcome is wrong, not merely slow: a transport error, an unexpected status
// or a body that does not match what was asked for.
type tally struct {
	attempted, failed int
}

// add records one operation's outcome.
func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// count records the outcome of every sample.
func (t *tally) count(samples []sample) {
	for _, s := range samples {
		t.add(s.ok)
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// okRatio is the share of attempted operations that succeeded.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
