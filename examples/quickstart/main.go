// Quickstart: the smallest useful program built on the public loopsched API.
// It creates a pool, runs a data-parallel transform, a scalar reduction and
// an ordered (non-commutative) generic reduction, and prints the results
// next to a sequential computation of each; it exits non-zero when one
// differs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"os"

	"loopsched"
)

// near reports whether a parallel floating-point sum agrees with the
// sequential one: the reduction adds the same terms in another order, so the
// two may differ by round-off only.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

func main() {
	pool := loopsched.New(loopsched.Config{})
	fmt.Println("pool:", pool)
	ok := true

	// A data-parallel transform: every index handled exactly once.
	const n = 1 << 20
	xs := make([]float64, n)
	pool.ForEach(n, func(i int) {
		xs[i] = math.Sqrt(float64(i))
	})
	wantSum, wantSq := 0.0, 0.0
	for i, x := range xs {
		ok = ok && x == math.Sqrt(float64(i))
		wantSum += x
		wantSq += x * x
	}

	// A scalar reduction folded into the scheduler's join wave.
	sum := pool.ReduceFloat64(n, 0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += xs[i]
			}
			return acc
		})
	fmt.Printf("sum of sqrt(0..%d) = %.3f (sequential: %.3f)\n", n-1, sum, wantSum)
	ok = ok && near(sum, wantSum)

	// A vector reduction: several statistics in one pass.
	stats := pool.ReduceVec(n, 3, func(w, lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0] += xs[i]
			acc[1] += xs[i] * xs[i]
			acc[2]++
		}
	})
	mean := stats[0] / stats[2]
	variance := stats[1]/stats[2] - mean*mean
	fmt.Printf("mean = %.3f (sequential: %.3f), variance = %.3f over %d samples\n", mean, wantSum/n, variance, int(stats[2]))
	ok = ok && near(stats[0], wantSum) && near(stats[1], wantSq) && stats[2] == n

	// An ordered generic reduction (the canonical non-commutative reducer):
	// collecting the indices of local maxima in index order.
	peaks := loopsched.Reduce(pool, n-2, loopsched.AppendOp[int](),
		func(w, lo, hi int, acc []int) []int {
			for i := lo; i < hi; i++ {
				j := i + 1 // interior index
				if xs[j] > xs[j-1] && xs[j] > xs[j+1] {
					acc = append(acc, j)
				}
			}
			return acc
		})
	fmt.Printf("found %d local maxima (sqrt is monotone, so expect 0)\n", len(peaks))
	ok = ok && len(peaks) == 0

	// The same pool can run many loops back to back; this is the fine-grain
	// regime the scheduler is built for.
	total := 0.0
	for step := 0; step < 1000; step++ {
		total += pool.ReduceFloat64(4096, 0,
			func(a, b float64) float64 { return a + b },
			func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += float64(i % 7)
				}
				return acc
			})
	}
	want := 0
	for i := 0; i < 4096; i++ {
		want += i % 7
	}
	fmt.Printf("1000 back-to-back fine-grain reducing loops: total = %.0f (want %d)\n", total, 1000*want)
	ok = ok && total == float64(1000*want)

	pool.Close()
	if !ok {
		fmt.Println("FAIL: a result differs from its expectation")
		os.Exit(1)
	}
}
