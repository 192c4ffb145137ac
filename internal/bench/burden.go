package bench

import (
	"fmt"
	"runtime"
	"time"

	"loopsched/internal/amdahl"
	"loopsched/internal/sched"
	"loopsched/internal/stats"
	"loopsched/internal/workload"
)

// BurdenOptions configures the Table 1 micro-benchmark. The sweep holds the
// loop's iteration count fixed (so the number of scheduling events per loop
// is constant) and varies the per-iteration work, spanning sequential loop
// durations from MinTotal to MaxTotal — "varying the amount of work in the
// parallel loop", as the paper puts it.
type BurdenOptions struct {
	// Workers is the worker count P used in the Amdahl model; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Iterations is the fixed iteration count of the swept loops; <= 0
	// selects 4096 (the order of the paper's MPDATA loops).
	Iterations int
	// MinTotal and MaxTotal bound the sequential duration of the swept
	// loops; zero values select 20 µs .. 20 ms.
	MinTotal, MaxTotal time.Duration
	// Points is the number of sweep points; <= 0 selects 14.
	Points int
	// Reps is the number of timed repetitions per point (the minimum is
	// kept); <= 0 selects 5.
	Reps int
	// InnerReps multiplies the number of loop launches per timed repetition
	// for very short loops so each measurement is at least ~200 µs of wall
	// clock; <= 0 derives it automatically.
	InnerReps int
}

func (o *BurdenOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Iterations <= 0 {
		o.Iterations = 4096
	}
	if o.MinTotal <= 0 {
		o.MinTotal = 20 * time.Microsecond
	}
	if o.MaxTotal <= 0 {
		o.MaxTotal = 20 * time.Millisecond
	}
	if o.Points <= 0 {
		o.Points = 14
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
}

// SweepPoint is one measurement of the granularity sweep.
type SweepPoint struct {
	// N is the iteration count of the loop.
	N int
	// IterNs is the calibrated per-iteration cost of this point's body, ns.
	IterNs float64
	// SeqNs is the measured sequential duration of the loop body, ns.
	SeqNs float64
	// ParNs is the measured parallel duration under the scheduler, ns.
	ParNs float64
	// Speedup is SeqNs / ParNs.
	Speedup float64
}

// BurdenResult is one row of Table 1 plus its underlying sweep.
type BurdenResult struct {
	Scheduler string
	Workers   int
	Fit       amdahl.Fit
	Sweep     []SweepPoint
	// PaperBurdenUs is the paper's measurement for this row (0 if the row
	// has no counterpart in the paper).
	PaperBurdenUs float64
}

// BurdenUs returns the estimated burden in microseconds.
func (r BurdenResult) BurdenUs() float64 { return r.Fit.D * 1e6 }

// BurdenSweep returns the cost sweep MeasureBurden runs for opt. The kernel
// unit is calibrated once per process, so every scheduler measured in one
// process runs the same sweep.
func BurdenSweep(opt BurdenOptions) workload.CostSweep {
	opt.normalize()
	return workload.NewCostSweep(opt.Iterations, opt.MinTotal, opt.MaxTotal, opt.Points)
}

// MeasureBurden runs the granularity sweep for one scheduler and fits the
// Amdahl burden model, reproducing one row of Table 1.
func MeasureBurden(name string, opt BurdenOptions) (BurdenResult, error) {
	opt.normalize()
	s, err := NewScheduler(name, opt.Workers)
	if err != nil {
		return BurdenResult{}, err
	}
	defer s.Close()

	sweep := BurdenSweep(opt)
	res := BurdenResult{Scheduler: name, Workers: s.P(), PaperBurdenUs: PaperBurdens[name]}

	var fitPoints []amdahl.Point
	for _, work := range sweep.Works {
		pt := measurePoint(s, work, sweep.Iterations, opt)
		res.Sweep = append(res.Sweep, pt)
		fitPoints = append(fitPoints, amdahl.Point{T: pt.SeqNs * 1e-9, S: pt.Speedup})
	}
	fit, err := amdahl.FitBurden(fitPoints, s.P())
	if err != nil {
		return res, fmt.Errorf("bench: fitting burden for %s: %w", name, err)
	}
	res.Fit = fit
	return res, nil
}

// measurePoint times one sweep point: the sequential loop body and the same
// loop dispatched through the scheduler.
func measurePoint(s sched.Scheduler, work workload.Work, n int, opt BurdenOptions) SweepPoint {
	inner := opt.InnerReps
	if inner <= 0 {
		// Aim for >= ~1 ms of measured work per repetition so that the very
		// fine-grain points (tens of µs) are not dominated by timer and
		// run-to-run noise — their residuals feed straight into the burden
		// estimate.
		target := time.Millisecond
		est := work.SequentialNs(n)
		inner = int(float64(target.Nanoseconds())/est) + 1
		if inner > 5000 {
			inner = 5000
		}
	}

	body := func(w, begin, end int) {
		workload.Consume(work.Run(begin, end))
	}

	seq := stats.Timer(opt.Reps, true, func() {
		for r := 0; r < inner; r++ {
			workload.Sink += work.Run(0, n)
		}
	})
	par := stats.Timer(opt.Reps, true, func() {
		for r := 0; r < inner; r++ {
			s.For(n, body)
		}
	})

	seqNs := float64(stats.MinDuration(seq).Nanoseconds()) / float64(inner)
	parNs := float64(stats.MinDuration(par).Nanoseconds()) / float64(inner)
	if parNs <= 0 {
		parNs = 1
	}
	return SweepPoint{N: n, IterNs: work.NsPerIter, SeqNs: seqNs, ParNs: parNs, Speedup: seqNs / parNs}
}

// Table1 runs the burden micro-benchmark for every scheduler in the paper's
// Table 1 and returns the rows in the paper's order.
func Table1(opt BurdenOptions) ([]BurdenResult, error) {
	var rows []BurdenResult
	for _, name := range Table1Schedulers() {
		r, err := MeasureBurden(name, opt)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}
