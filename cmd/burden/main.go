// Command burden regenerates Table 1 of the paper: it sweeps the granularity
// of a synthetic parallel loop under each scheduler, fits the Amdahl burden
// model S = T/(d + T/P) by least squares, and prints the estimated burden d
// per scheduler next to the paper's own measurements.
//
// Usage:
//
//	go run ./cmd/burden [-workers N] [-points N] [-reps N]
//	                    [-iterations N] [-min-total D] [-max-total D] [-schedulers a,b,c]
//	                    [-sweeps] [-ablation]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"loopsched/internal/bench"
)

func main() {
	var (
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker count P used in the burden model")
		points     = flag.Int("points", 14, "number of sweep points")
		reps       = flag.Int("reps", 5, "timed repetitions per point (minimum kept)")
		iterations = flag.Int("iterations", 4096, "fixed iteration count of the swept loops")
		minTotal   = flag.Duration("min-total", 20*time.Microsecond, "smallest sequential loop duration in the sweep")
		maxTotal   = flag.Duration("max-total", 20*time.Millisecond, "largest sequential loop duration in the sweep")
		schedulers = flag.String("schedulers", "", "comma-separated scheduler names (default: the paper's Table 1 rows)")
		sweeps     = flag.Bool("sweeps", false, "also print the raw granularity sweep behind each row")
		ablation   = flag.Bool("ablation", false, "also run the design-choice ablation (half vs full barrier, tree vs centralized, fan-outs)")
	)
	flag.Parse()

	opt := bench.BurdenOptions{
		Workers:    *workers,
		Iterations: *iterations,
		MinTotal:   *minTotal,
		MaxTotal:   *maxTotal,
		Points:     *points,
		Reps:       *reps,
	}

	names := bench.Table1Schedulers()
	if *schedulers != "" {
		names = strings.Split(*schedulers, ",")
	}

	fmt.Printf("Reproducing Table 1 on %d workers (GOMAXPROCS=%d, NumCPU=%d)\n",
		*workers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	// The sweep runs whole kernel units per iteration, so its totals and
	// point count can differ from the flags; print what is measured.
	sweep := bench.BurdenSweep(opt)
	total := func(i int) time.Duration {
		return time.Duration(sweep.TotalNs(i)).Round(100 * time.Nanosecond)
	}
	fmt.Printf("sweep: %d points (%d requested), %v .. %v of sequential work over %d-iteration loops, %d reps\n\n",
		len(sweep.Works), *points, total(0), total(len(sweep.Works)-1), sweep.Iterations, *reps)

	start := time.Now()
	var rows []bench.BurdenResult
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fmt.Fprintf(os.Stderr, "measuring %-30s ... ", name)
		row, err := bench.MeasureBurden(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "failed\n")
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "d = %6.2f us (elapsed %s)\n", row.BurdenUs(), bench.Elapsed(start))
		rows = append(rows, row)
	}

	fmt.Println()
	if err := bench.WriteTable1(os.Stdout, rows); err != nil {
		fatal(err)
	}

	if *sweeps {
		for _, row := range rows {
			fmt.Println()
			if err := bench.WriteSweep(os.Stdout, row); err != nil {
				fatal(err)
			}
		}
	}

	if *ablation {
		fmt.Println()
		abOpt := bench.AblationOptions{Workers: *workers}
		abRows, err := bench.RunAblation(abOpt)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteAblation(os.Stdout, abRows, abOpt); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "burden:", err)
	os.Exit(1)
}
