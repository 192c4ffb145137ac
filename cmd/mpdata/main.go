// Command mpdata regenerates Figure 2 of the paper: the speedup of the
// MPDATA advection solver on the 5568-point / 16399-edge unstructured grid
// under the fine-grain scheduler and the OpenMP-style baseline (left panel),
// and the relative speedup of the fine-grain scheduler over the baseline
// (right panel).
//
// Usage:
//
//	go run ./cmd/mpdata [-steps N] [-reps N] [-threads 1,2,4,...]
//	                    [-schedulers a,b] [-corrective N] [-verify]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"loopsched/internal/bench"
)

// maxMassErr bounds the relative mass error -verify accepts: MPDATA conserves
// mass up to round-off.
const maxMassErr = 1e-11

func main() {
	var (
		steps      = flag.Int("steps", 50, "MPDATA time steps per measurement")
		reps       = flag.Int("reps", 3, "timed repetitions (minimum kept)")
		threads    = flag.String("threads", "", "comma-separated thread counts (default: 1,2,4,... up to the machine)")
		schedulers = flag.String("schedulers", "fine-grain-tree,openmp-static", "comma-separated scheduler names for the left panel")
		corrective = flag.Int("corrective", 1, "number of MPDATA corrective passes")
		verify     = flag.Bool("verify", false, "check each scheduler's field against the sequential oracle bit for bit and exit non-zero on a mismatch (-schedulers all checks every registered one)")
	)
	flag.Parse()

	if *verify {
		names := splitList(*schedulers)
		if len(names) == 1 && names[0] == "all" {
			names = bench.Names()
		}
		failed := false
		for _, name := range names {
			maxDiff, massErr, differ, err := bench.VerifyMPDATA(name, 10)
			if err != nil {
				fatal(err)
			}
			verdict := "ok"
			if differ > 0 || !(massErr <= maxMassErr) {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("%-28s max |Δψ| vs sequential = %.3g, points differing in any bit = %d, relative mass error = %.3g: %s\n",
				name, maxDiff, differ, massErr, verdict)
		}
		if failed {
			fatal(fmt.Errorf("a field differs from the sequential one or loses mass beyond %g", maxMassErr))
		}
		return
	}

	opt := bench.MPDATAOptions{
		Steps:        *steps,
		Reps:         *reps,
		Corrective:   *corrective,
		ThreadCounts: parseInts(*threads),
		Schedulers:   splitList(*schedulers),
	}

	fmt.Printf("Reproducing Figure 2 (GOMAXPROCS=%d, NumCPU=%d)\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	if d, err := bench.LoopDuration("fine-grain-tree", 50); err == nil {
		fmt.Printf("average parallel-loop duration inside a time step: %v (fine-grain regime)\n\n", d)
	}

	res, err := bench.RunMPDATA(opt)
	if err != nil {
		fatal(err)
	}
	if err := bench.WriteMPDATA(os.Stdout, res); err != nil {
		fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			fatal(fmt.Errorf("invalid thread count %q", part))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpdata:", err)
	os.Exit(1)
}
