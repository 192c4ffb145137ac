// Command pipeline demonstrates job pipelines: parallel-loop stages chained
// through runtime dependencies — each stage starts the moment the previous
// stage's join wave completes, with no client-side waiting in between — plus
// a fan-out/fan-in diamond and cancellation propagating down a chain. Each
// line prints a result next to its expectation, and the program exits
// non-zero when one differs.
package main

import (
	"errors"
	"fmt"
	"os"

	"loopsched"
)

func main() {
	pool := loopsched.New(loopsched.Config{})
	fmt.Printf("pool: %v\n", pool)

	const n = 1 << 20
	data := make([]float64, n)

	// A linear produce -> transform -> reduce pipeline via Then/ThenReduce.
	// Only the last handle is waited on; the intermediate releases happen
	// inside the runtime's join waves.
	last := pool.Submit(n, func(i int) { data[i] = float64(i) }).
		Then(n, func(i int) { data[i] *= 2 }).
		ThenReduce(n, 0,
			func(a, b float64) float64 { return a + b },
			func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			})
	sum, err := last.Result()
	if err != nil {
		panic(err)
	}
	want := float64(n) * float64(n-1) // sum of 2i over [0, n)
	fmt.Printf("chain:   sum = %.0f (want %.0f)\n", sum, want)
	ok := sum == want

	// The same shape with SubmitPipeline: one call, one handle per stage.
	stages := pool.SubmitPipeline(
		loopsched.Stage{N: n, Body: func(i int) { data[i] = float64(i) }},
		loopsched.Stage{N: n, For: func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] += 1
			}
		}},
		loopsched.Stage{N: n, Reduce: &loopsched.ReduceStage{
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			Body: func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			},
		}},
	)
	sum, err = stages[len(stages)-1].Result()
	if err != nil {
		panic(err)
	}
	want = float64(n)*float64(n-1)/2 + n
	fmt.Printf("stages:  sum = %.0f (want %.0f)\n", sum, want)
	ok = ok && sum == want

	// Fan-out/fan-in with JobOptions.After: one source, three dependent
	// transforms that all wait for it, one sink that waits for all three.
	parts := make([][]float64, 3)
	src := pool.Submit(n, func(i int) { data[i] = 1 })
	var mids []*loopsched.Job
	for k := 0; k < 3; k++ {
		k := k
		parts[k] = make([]float64, n)
		mids = append(mids, pool.SubmitOpts(n,
			loopsched.JobOptions{After: []*loopsched.Job{src}},
			func(i int) { parts[k][i] = data[i] * float64(k+1) }))
	}
	sink := pool.SubmitReduceOpts(n,
		loopsched.JobOptions{After: mids, Commutative: true},
		0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += parts[0][i] + parts[1][i] + parts[2][i]
			}
			return acc
		})
	sum, err = sink.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("diamond: sum = %.0f (want %d)\n", sum, 6*n)
	ok = ok && sum == 6*n

	// Canceling an upstream cancels the whole downstream chain: the stats
	// report the dependents as propagated cancels, and their errors match
	// ErrCanceled while wrapping the upstream's.
	gate := make(chan struct{})
	blocker := pool.Submit(1, func(i int) { <-gate })
	head := blocker.Then(n, func(i int) {}) // blocked behind the gate
	tail := head.Then(n, func(i int) {})    // blocked on head
	head.Cancel()                           // cancels head...
	err = tail.Wait()                       // ...and, transitively, tail
	close(gate)
	blocker.Wait()
	fmt.Printf("cancel:  tail err = %q (is ErrCanceled: %v)\n", err, errors.Is(err, loopsched.ErrCanceled))
	ok = ok && errors.Is(err, loopsched.ErrCanceled)

	// Only tail's cancel propagated (head's was explicit), and at rest no job
	// is blocked. How many dependents were released depends on whether their
	// upstream had already finished when they were submitted.
	st := pool.AsyncStats()
	fmt.Printf("stats:   released=%d dep-canceled=%d (want 1) blocked=%d (want 0)\n",
		st.Total.Released, st.Total.DepCanceled, st.Total.BlockedDepth)
	ok = ok && st.Total.DepCanceled == 1 && st.Total.BlockedDepth == 0

	pool.Close()
	if !ok {
		fmt.Println("FAIL: a result differs from its expectation")
		os.Exit(1)
	}
}
