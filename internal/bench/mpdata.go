package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"loopsched/internal/grid"
	"loopsched/internal/mpdata"
	"loopsched/internal/sched"
	"loopsched/internal/stats"
)

// MPDATAOptions configures the Figure 2 experiment.
type MPDATAOptions struct {
	// Steps is the number of MPDATA time steps per measurement; <= 0
	// selects 50.
	Steps int
	// Reps is the number of timed repetitions (minimum kept); <= 0 selects 3.
	Reps int
	// ThreadCounts are the worker counts of the x axis; empty selects
	// DefaultThreadCounts.
	ThreadCounts []int
	// Corrective is the number of MPDATA corrective passes; <= 0 selects 1.
	Corrective int
	// Rows/Cols/Edges override the grid; zero values select the paper's
	// 5568-point, 16399-edge grid.
	Rows, Cols, Edges int
	// Schedulers are the runtimes of the left panel; empty selects the
	// paper's pair {fine-grain-tree, openmp-static}.
	Schedulers []string
}

func (o *MPDATAOptions) normalize() {
	if o.Steps <= 0 {
		o.Steps = 50
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.ThreadCounts) == 0 {
		o.ThreadCounts = DefaultThreadCounts(runtime.GOMAXPROCS(0))
	}
	if o.Corrective <= 0 {
		o.Corrective = 1
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = []string{"fine-grain-tree", "openmp-static"}
	}
}

// ScalingPoint is one point of a speedup-vs-threads series.
type ScalingPoint struct {
	Threads int
	// Seconds is the measured wall-clock time of the workload.
	Seconds float64
	// Speedup is sequential time / parallel time.
	Speedup float64
}

// ScalingSeries is a named speedup curve.
type ScalingSeries struct {
	Scheduler string
	Points    []ScalingPoint
}

// MPDATAResult holds both panels of Figure 2: the per-scheduler speedup
// curves (left) and the ratio of the fine-grain scheduler over the OpenMP
// baseline (right).
type MPDATAResult struct {
	GridPoints, GridEdges int
	Steps                 int
	SequentialSeconds     float64
	Series                []ScalingSeries
	// Ratio[i] is Series[0].Speedup / Series[1].Speedup at the same thread
	// count (fine-grain over OpenMP), expressed as a multiplicative factor.
	Ratio []ScalingPoint
}

// RunMPDATA reproduces Figure 2.
func RunMPDATA(opt MPDATAOptions) (MPDATAResult, error) {
	opt.normalize()

	var g *grid.Grid
	var err error
	if opt.Rows > 0 && opt.Cols > 0 {
		g, err = grid.NewTriangulated(opt.Rows, opt.Cols, opt.Edges)
	} else {
		g, err = grid.NewPaperGrid()
	}
	if err != nil {
		return MPDATAResult{}, err
	}

	base, err := mpdata.New(g, mpdata.Config{Corrective: opt.Corrective})
	if err != nil {
		return MPDATAResult{}, err
	}

	res := MPDATAResult{GridPoints: g.NumPoints, GridEdges: g.NumEdges(), Steps: opt.Steps}

	// Sequential baseline.
	seq := sched.NewSequential()
	res.SequentialSeconds = timeMPDATA(base, seq, opt)

	for _, name := range opt.Schedulers {
		series := ScalingSeries{Scheduler: name}
		for _, p := range opt.ThreadCounts {
			s, err := NewScheduler(name, p)
			if err != nil {
				return res, err
			}
			secs := timeMPDATA(base, s, opt)
			s.Close()
			series.Points = append(series.Points, ScalingPoint{
				Threads: p,
				Seconds: secs,
				Speedup: res.SequentialSeconds / secs,
			})
		}
		res.Series = append(res.Series, series)
	}

	if len(res.Series) >= 2 {
		a, b := res.Series[0], res.Series[1]
		for i := range a.Points {
			if i < len(b.Points) && b.Points[i].Speedup > 0 {
				res.Ratio = append(res.Ratio, ScalingPoint{
					Threads: a.Points[i].Threads,
					Speedup: a.Points[i].Speedup / b.Points[i].Speedup,
				})
			}
		}
	}
	return res, nil
}

// timeMPDATA measures the wall-clock seconds of opt.Steps time steps from a
// clone of the base solver under the given scheduler.
func timeMPDATA(base *mpdata.Solver, s sched.Scheduler, opt MPDATAOptions) float64 {
	durations := stats.Timer(opt.Reps, true, func() {
		solver := base.Clone()
		solver.Run(s, opt.Steps)
	})
	return stats.MinDuration(durations).Seconds()
}

// VerifyMPDATA runs a short simulation under the named scheduler and the
// sequential oracle and returns the maximum absolute field difference, the
// relative mass error and the number of points whose value differs from the
// oracle's in any bit (so a NaN or a zero of the other sign counts); used by
// integration tests and by the cmd tool's -verify flag.
func VerifyMPDATA(name string, steps int) (maxDiff, massErr float64, differ int, err error) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		return 0, 0, 0, err
	}
	base, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		return 0, 0, 0, err
	}
	seqSolver := base.Clone()
	parSolver := base.Clone()

	seq := sched.NewSequential()
	s, err := NewScheduler(name, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Close()

	mass0 := seqSolver.Mass(seq)
	seqSolver.Run(seq, steps)
	parSolver.Run(s, steps)

	for i := range seqSolver.Psi {
		d := math.Abs(seqSolver.Psi[i] - parSolver.Psi[i])
		if d > maxDiff {
			maxDiff = d
		}
		if math.Float64bits(seqSolver.Psi[i]) != math.Float64bits(parSolver.Psi[i]) {
			differ++
		}
	}
	mass1 := parSolver.Mass(s)
	if mass0 != 0 {
		massErr = math.Abs(mass1-mass0) / math.Abs(mass0)
	}
	return maxDiff, massErr, differ, nil
}

// LoopDuration estimates the average duration of a single parallel loop in
// the MPDATA step under the given scheduler — the quantity that makes MPDATA
// a fine-grain workload (tens of microseconds per loop on the paper's grid
// with two workers, less with each added worker).
func LoopDuration(name string, steps int) (time.Duration, error) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		return 0, err
	}
	solver, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		return 0, err
	}
	s, err := NewScheduler(name, 0)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	start := time.Now()
	solver.Run(s, steps)
	elapsed := time.Since(start)
	loops := steps * solver.LoopsPerStep()
	if loops == 0 {
		return 0, fmt.Errorf("bench: no loops executed")
	}
	return elapsed / time.Duration(loops), nil
}
