// MPDATA example: advect a scalar field on the paper's 5568-point,
// 16399-edge unstructured grid with the fine-grain scheduler, reporting mass
// conservation and field extrema as the simulation progresses — the workload
// of Figure 2 of the paper, run as an application rather than a benchmark.
//
//	go run ./examples/mpdata [-steps N] [-workers N] [-report N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"loopsched"
	"loopsched/internal/grid"
	"loopsched/internal/mpdata"
)

func main() {
	var (
		steps   = flag.Int("steps", 200, "number of time steps")
		workers = flag.Int("workers", 0, "worker count (0 = all processors)")
		report  = flag.Int("report", 50, "report diagnostics every N steps")
	)
	flag.Parse()

	g, err := grid.NewPaperGrid()
	if err != nil {
		fatal(err)
	}
	solver, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		fatal(err)
	}

	pool := loopsched.New(loopsched.Config{Workers: *workers})
	defer pool.Close()
	run := pool.Scheduler()

	fmt.Printf("MPDATA on %d points / %d edges, dt = %.4f, %d workers\n",
		g.NumPoints, g.NumEdges(), solver.Dt(), pool.Workers())
	fmt.Printf("each time step issues %d parallel loops\n\n", solver.LoopsPerStep())

	mass0 := solver.Mass(run)
	start := time.Now()
	for s := 1; s <= *steps; s++ {
		solver.Step(run)
		if s%*report == 0 || s == *steps {
			mass := solver.Mass(run)
			min, max := solver.MinMax(run)
			fmt.Printf("step %4d: mass drift %+.2e   field range [%.4f, %.4f]\n",
				s, (mass-mass0)/mass0, min, max)
		}
	}
	elapsed := time.Since(start)
	loops := *steps * solver.LoopsPerStep()
	fmt.Printf("\n%d steps (%d parallel loops) in %v — %.1f µs per loop\n",
		*steps, loops, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/float64(loops))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpdata example:", err)
	os.Exit(1)
}
