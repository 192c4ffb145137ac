// Package stats provides the small statistical toolkit of the runtime and
// the benchmark harness: exact quantiles of a sample, robust repetition
// helpers, and the lock-free latency Histogram the jobs runtime records every
// completion into.
package stats

import (
	"sort"
	"time"
)

// Median returns the median of the sample (average of the middle two for
// even sizes). The input is not modified.
func Median(xs []float64) float64 { return Quantiles(xs, 0.5)[0] }

// interpolate returns the q-quantile (q clamped to [0, 1]) of n > 0 ordered
// values by linear interpolation between order statistics; at(k) returns the
// k-th smallest, 0-based.
func interpolate(n uint64, q float64, at func(k uint64) float64) float64 {
	pos := min(max(q, 0), 1) * float64(n-1)
	k := uint64(pos)
	frac := pos - float64(k)
	if frac == 0 {
		return at(k)
	}
	return at(k)*(1-frac) + at(k+1)*frac
}

// Quantiles returns the given quantiles of the sample (each clamped to
// [0, 1]) by linear interpolation between order statistics, from one sorted
// copy; the input is not modified. An empty sample yields zeros.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for i, q := range qs {
		out[i] = interpolate(uint64(len(cp)), q, func(k uint64) float64 { return cp[k] })
	}
	return out
}

// MinDuration returns the smallest of the supplied durations; benchmark
// timing conventionally reports the minimum of several repetitions as the
// least-noisy estimate of the true cost.
func MinDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	min := ds[0]
	for _, d := range ds[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// Timer measures wall-clock durations of repeated runs of a function and
// returns them. The function is run once untimed to warm caches when warmup
// is true.
func Timer(reps int, warmup bool, f func()) []time.Duration {
	if reps <= 0 {
		reps = 1
	}
	if warmup {
		f()
	}
	out := make([]time.Duration, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		out[i] = time.Since(start)
	}
	return out
}
