// Reduction example: demonstrates the reducer facilities of the public API —
// scalar reductions merged into the join wave, reusable Reducer values (the
// statically allocated replacement for Cilk reducer hyperobjects), ordered
// non-commutative reductions, and how many combine operations each runtime
// performs for the same loop (P-1 for the fine-grain runtime versus a number
// proportional to the task count for the Cilk-style baseline). Every result
// is checked against a sequential scan, and the fine-grain combine count
// against P-1; the program exits non-zero when one differs.
//
//	go run ./examples/reduction [-workers N]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"loopsched"
	"loopsched/internal/cilk"
	"loopsched/internal/trace"
)

func main() {
	workers := flag.Int("workers", 0, "worker count (0 = all processors)")
	flag.Parse()

	pool := loopsched.New(loopsched.Config{Workers: *workers})
	p := pool.Workers()

	const n = 1 << 20
	values := make([]float64, n)
	wantEnergy, wantMin, wantMax, wantPositive := 0.0, math.Inf(1), math.Inf(-1), int64(0)
	for i := range values {
		v := math.Sin(float64(i) * 1e-3)
		values[i] = v
		wantEnergy += v * v
		wantMin, wantMax = math.Min(wantMin, v), math.Max(wantMax, v)
		if v > 0 {
			wantPositive++
		}
	}

	// Scalar reduction: the dot product of the signal with itself.
	energy := pool.ReduceFloat64(n, 0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += values[i] * values[i]
			}
			return acc
		})
	fmt.Printf("signal energy = %.3f (on %d workers; sequential: %.3f)\n", energy, p, wantEnergy)
	// The parallel sum adds the same terms in another order, so it may
	// differ from the sequential one by round-off only.
	ok := math.Abs(energy-wantEnergy) <= 1e-12*wantEnergy

	// Generic reductions: min, max and an ordered argmax built from an
	// Append reducer (ordered, non-commutative — ties resolve to the lowest
	// index exactly as a sequential scan would).
	min := loopsched.Reduce(pool, n, loopsched.MinOp[float64](math.Inf(1)),
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				if values[i] < acc {
					acc = values[i]
				}
			}
			return acc
		})
	max := loopsched.Reduce(pool, n, loopsched.MaxOp[float64](math.Inf(-1)),
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				if values[i] > acc {
					acc = values[i]
				}
			}
			return acc
		})
	fmt.Printf("range = [%.6f, %.6f] (sequential: [%.6f, %.6f])\n", min, max, wantMin, wantMax)
	ok = ok && min == wantMin && max == wantMax

	// A reusable Reducer updated from several loops before being read.
	histogram := loopsched.NewReducer(pool, loopsched.SumOp[int64]())
	for pass := 0; pass < 4; pass++ {
		lo, hi := pass*(n/4), (pass+1)*(n/4)
		histogram.ForCombine(hi-lo, func(w, a, b int) {
			count := int64(0)
			for i := a; i < b; i++ {
				if values[lo+i] > 0 {
					count++
				}
			}
			histogram.Update(w, count)
		})
	}
	positive := histogram.Value() // Value also resets the reducer
	fmt.Printf("positive samples (accumulated over 4 loops) = %d of %d (sequential: %d)\n", positive, n, wantPositive)
	ok = ok && positive == wantPositive

	// Compare reduction machinery: the fine-grain runtime's combine count is
	// exactly P-1 per reducing loop; the Cilk-style baseline's grows with
	// the number of spawned tasks.
	fine := pool.Scheduler().(interface{ Counters() *trace.Counters }).Counters()
	fine.Reset()
	_ = pool.ReduceFloat64(n, 0, func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += values[i]
			}
			return acc
		})
	fgCombines := fine.Get(trace.Reductions)
	ok = ok && fgCombines == int64(p-1)
	baseline := cilk.New(cilk.Config{Workers: *workers})
	baseline.Counters().Reset()
	_ = baseline.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += values[i]
			}
			return acc
		})
	baseline.Close()
	ckCombines := baseline.Counters().Get(trace.Reductions)
	ckViews := baseline.Counters().Get(trace.ViewsCreated)
	fmt.Println()
	fmt.Println(strings.Repeat("-", 60))
	fmt.Printf("combine operations for one reducing loop over %d elements:\n", n)
	fmt.Printf("  fine-grain (merged into join half-barrier): %d  (= P-1)\n", fgCombines)
	fmt.Printf("  cilk-style baseline (per spawned task):     %d combines, %d views created\n", ckCombines, ckViews)

	pool.Close()
	if !ok {
		fmt.Println("FAIL: a result differs from its expectation")
		os.Exit(1)
	}
}
