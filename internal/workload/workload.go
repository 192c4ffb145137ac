// Package workload provides the synthetic workloads used by the scheduler
// burden micro-benchmark (Table 1 of the paper): a calibrated spin kernel
// whose per-iteration cost can be dialled from tens of nanoseconds to
// microseconds, so that the total sequential work T of a parallel loop can
// be swept across the range where it is comparable to the scheduling
// overhead d.
package workload

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// kernel performs `units` rounds of integer/floating point busy-work whose
// result is returned so the compiler cannot remove it. One unit is a handful
// of nanoseconds on current hardware.
func kernel(units int, seed uint64) uint64 {
	x := seed | 1
	f := 1.0001
	for i := 0; i < units; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*1.0000001 + float64(x&0xff)*1e-12
	}
	return x + uint64(math.Float64bits(f)&0xf)
}

// Sink accumulates kernel results; exported so benchmarks can defeat dead
// code elimination across package boundaries. It is for single-goroutine
// use (calibration, sequential baselines); parallel loop bodies must use
// Consume instead.
var Sink uint64

// sinkAtomic is the thread-safe counterpart of Sink.
var sinkAtomic atomic.Uint64

// Consume folds a kernel result into a global sink with an atomic update,
// defeating dead-code elimination from concurrently executing loop bodies.
func Consume(v uint64) { sinkAtomic.Add(v) }

// Work is a calibrated unit-cost iteration body.
type Work struct {
	// UnitsPerIter is the number of kernel units executed per iteration.
	UnitsPerIter int
	// NsPerIter is the calibrated cost of one iteration in nanoseconds.
	NsPerIter float64
}

// Calibrate measures the cost of one kernel unit and returns a Work whose
// per-iteration cost is as close as possible to targetNs nanoseconds (at
// least one unit per iteration).
func Calibrate(targetNs float64) Work {
	unitNs := CalibrateUnit()
	units := int(targetNs / unitNs)
	if units < 1 {
		units = 1
	}
	return Work{UnitsPerIter: units, NsPerIter: unitNs * float64(units)}
}

// calibratedUnitNs caches the measured cost of a single kernel unit;
// calibrateOnce makes the measurement safe from concurrent callers (the
// loopd daemon calibrates from HTTP handler goroutines).
var (
	calibrateOnce    sync.Once
	calibratedUnitNs float64
)

// CalibrateUnit measures (once) and returns the cost in nanoseconds of a
// single kernel unit. Safe for concurrent use.
func CalibrateUnit() float64 {
	calibrateOnce.Do(func() {
		const probeUnits = 1 << 16
		best := math.MaxFloat64
		var acc uint64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			acc += kernel(probeUnits, uint64(rep)+1)
			elapsed := float64(time.Since(start).Nanoseconds())
			per := elapsed / probeUnits
			if per < best {
				best = per
			}
		}
		Consume(acc) // defeat dead-code elimination without touching Sink
		if best <= 0 || math.IsInf(best, 0) {
			best = 1 // pathological timer resolution; assume 1 ns per unit
		}
		calibratedUnitNs = best
	})
	return calibratedUnitNs
}

// Iter runs the calibrated work for iteration i and returns a value that
// must be accumulated by the caller (to defeat dead-code elimination).
func (w Work) Iter(i int) uint64 {
	return kernel(w.UnitsPerIter, uint64(i)+1)
}

// Run executes iterations [begin, end) and returns their combined result.
func (w Work) Run(begin, end int) uint64 {
	var acc uint64
	for i := begin; i < end; i++ {
		acc += kernel(w.UnitsPerIter, uint64(i)+1)
	}
	return acc
}

// SequentialNs estimates the sequential execution time, in nanoseconds, of a
// loop of n iterations of this work.
func (w Work) SequentialNs(n int) float64 { return w.NsPerIter * float64(n) }

// CostSweep describes a granularity sweep at a fixed iteration count: the
// per-iteration cost grows geometrically so that the total sequential work
// of the loop spans [minTotal, maxTotal]. This is the shape of the paper's
// micro-benchmark ("varying the amount of work in the parallel loop"): the
// loop structure — and therefore the number of scheduling events, chunk
// claims and steals per loop — stays constant while only the work changes,
// so the fitted intercept isolates the scheduler burden.
type CostSweep struct {
	// Iterations is the fixed iteration count of every loop in the sweep.
	Iterations int
	// Works holds one calibrated Work per sweep point, ordered by
	// increasing total cost.
	Works []Work
}

// NewCostSweep builds a cost sweep of `points` loops over `iterations`
// iterations whose total sequential durations range geometrically from
// minTotal to maxTotal, in whole units of the calibrated kernel.
func NewCostSweep(iterations int, minTotal, maxTotal time.Duration, points int) CostSweep {
	return costSweep(iterations, minTotal, maxTotal, points, CalibrateUnit())
}

// costSweep is NewCostSweep for a kernel unit of unitNs nanoseconds. Each
// point's units per iteration are rounded to nearest, except the first
// point's, which are rounded up so the sweep starts at minTotal or above.
// Targets that round to the units of the point before them are dropped, so
// a coarse unit can yield fewer than `points` points.
func costSweep(iterations int, minTotal, maxTotal time.Duration, points int, unitNs float64) CostSweep {
	if iterations < 1 {
		iterations = 1
	}
	if points < 2 {
		points = 2
	}
	lo := float64(minTotal.Nanoseconds())
	hi := float64(maxTotal.Nanoseconds())
	if lo <= 0 {
		lo = 1000
	}
	if hi <= lo {
		hi = lo * 10
	}
	ratio := math.Pow(hi/lo, 1/float64(points-1))
	s := CostSweep{Iterations: iterations}
	total := lo
	prevUnits := 0
	for i := 0; i < points; i++ {
		perIter := total / float64(iterations) / unitNs
		units := int(math.Round(perIter))
		if i == 0 {
			units = int(math.Ceil(perIter))
		}
		units = max(units, 1)
		if units > prevUnits {
			s.Works = append(s.Works, Work{UnitsPerIter: units, NsPerIter: unitNs * float64(units)})
			prevUnits = units
		}
		total *= ratio
	}
	return s
}

// TotalNs returns the calibrated sequential duration, in nanoseconds, of
// the sweep's i-th loop.
func (s CostSweep) TotalNs(i int) float64 { return s.Works[i].SequentialNs(s.Iterations) }

// Sweep describes a granularity sweep for the burden micro-benchmark: a
// fixed per-iteration cost and a set of iteration counts chosen so the total
// sequential work spans [MinTotal, MaxTotal].
type Sweep struct {
	Work   Work
	Counts []int
}

// NewSweep builds a sweep whose total sequential work ranges geometrically
// from minTotal to maxTotal (durations) across `points` measurement points,
// with a per-iteration cost of about iterNs nanoseconds.
func NewSweep(iterNs float64, minTotal, maxTotal time.Duration, points int) Sweep {
	if points < 2 {
		points = 2
	}
	w := Calibrate(iterNs)
	lo := float64(minTotal.Nanoseconds())
	hi := float64(maxTotal.Nanoseconds())
	if hi <= lo {
		hi = lo * 10
	}
	ratio := math.Pow(hi/lo, 1/float64(points-1))
	counts := make([]int, 0, points)
	total := lo
	for i := 0; i < points; i++ {
		n := int(total / w.NsPerIter)
		if n < 1 {
			n = 1
		}
		if len(counts) == 0 || n != counts[len(counts)-1] {
			counts = append(counts, n)
		}
		total *= ratio
	}
	return Sweep{Work: w, Counts: counts}
}
