package stats

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram layout: log-linear buckets over nanoseconds. Values below
// subBuckets get one exact bucket each; every octave [2^e, 2^(e+1)) above
// is split into subBuckets equal sub-buckets, up to the int64 limit. A
// bucket's width is at most 1/subBuckets of its lower bound, and Quantile
// reports bucket midpoints, so a reported value lies within half of that —
// RelErr — of the true one.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	numBuckets = (63 - subBits + 1) * subBuckets

	// RelErr bounds the relative error of Snapshot.Quantile against the exact
	// interpolated quantile (the one Quantiles computes) of the same samples.
	RelErr = 1.0 / (2 * subBuckets)
)

// Histogram is a lock-free latency histogram: one atomic counter per
// bucket plus an atomic sum, so recording never blocks and counts only
// grow. Histograms of different schedulers or processes merge by adding
// their snapshots, and the histogram of any stretch of time is the
// difference of two snapshots. The zero value is empty and ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Snapshot is a point-in-time copy of a Histogram's counts.
type Snapshot struct {
	counts [numBuckets]uint64
	n      uint64
	sum    int64
}

// bucketOf maps a nanosecond value to its bucket; negative values count
// as 0.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1
	return (e-subBits+1)<<subBits | int(ns>>(e-subBits))&(subBuckets-1)
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	return float64(int64(subBuckets|i&(subBuckets-1)) << shift), float64(int64(1) << shift)
}

// Record adds one duration.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(int64(d))].Add(1)
	h.sum.Add(int64(d))
}

// Load returns a snapshot of the current counts. Records that run
// concurrently with Load may be partly included (counted but not yet
// summed, or the reverse), never double-counted.
func (h *Histogram) Load() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.n += s.counts[i]
	}
	s.sum = h.sum.Load()
	return s
}

// CopyFrom stores src's current counts into h, one atomic store per
// bucket. It is meant for marks: a Histogram that only holds copies of src,
// which readers subtract from a later Load of src.
func (h *Histogram) CopyFrom(src *Histogram) {
	for i := range h.counts {
		h.counts[i].Store(src.counts[i].Load())
	}
	h.sum.Store(src.sum.Load())
}

// Add returns the bucket-wise sum of s and o.
func (s Snapshot) Add(o Snapshot) Snapshot {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
	s.n += o.n
	s.sum += o.sum
	return s
}

// Sub returns the bucket-wise difference s - o: the records between an
// earlier snapshot o and s.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	for i := range s.counts {
		s.counts[i] -= o.counts[i]
	}
	s.n -= o.n
	s.sum -= o.sum
	return s
}

// Count returns the number of recorded values.
func (s *Snapshot) Count() uint64 { return s.n }

// Sum returns the total of the recorded values.
func (s *Snapshot) Sum() time.Duration { return time.Duration(s.sum) }

// Quantile returns the q-quantile (q clamped to [0, 1]), interpolated
// between order statistics exactly as Quantiles does, with each order
// statistic read as its bucket's midpoint: the result is within RelErr of
// the exact quantile of the recorded values, give or take the truncation to
// whole nanoseconds. An empty snapshot yields 0.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(interpolate(s.n, q, s.orderStat))
}

// orderStat returns the midpoint of the bucket holding the k-th smallest
// value (0-based, k < n).
func (s *Snapshot) orderStat(k uint64) float64 {
	i := 0
	for ; k >= s.counts[i]; i++ {
		k -= s.counts[i]
	}
	lo, width := bucketBounds(i)
	return lo + (width-1)/2
}

// Prometheus bucket bounds: one le per octave, 2^promLo ns (~1 µs) to
// 2^promHi ns (~18 min), plus +Inf. Each is a bucket boundary, so the
// cumulative counts need no interpolation; only a value of exactly 2^e ns
// counts under the next bound up.
const promLo, promHi = 10, 40

// WritePrometheus writes s as the _bucket, _sum and _count series of the
// Prometheus histogram name, in seconds. labels is empty or a `key="value"`
// list spliced into every series; the HELP and TYPE lines are the caller's.
func (s *Snapshot) WritePrometheus(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	i := 0
	for e := promLo; e <= promHi; e++ {
		for ; i < bucketOf(1<<e); i++ {
			cum += s.counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, float64(int64(1)<<e)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.n)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, labels, s.Sum().Seconds(), name, labels, s.n)
}
