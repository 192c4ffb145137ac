// Command asyncjobs demonstrates the asynchronous multi-job API: many
// goroutines submit parallel loops to one shared pool, fan out a group,
// read a reduction result from a job handle and cancel a queued job. It
// exits non-zero if any result differs from its expectation.
package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"loopsched"
)

func main() {
	pool := loopsched.New(loopsched.Config{})
	fmt.Printf("pool: %v\n", pool)
	ok := true

	// Concurrent tenants: each goroutine submits its own loop jobs.
	var wg sync.WaitGroup
	var total sync.Map
	for tenant := 0; tenant < 4; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			n := 100000 * (tenant + 1)
			j := pool.SubmitReduce(n, 0,
				func(a, b float64) float64 { return a + b },
				func(w, lo, hi int, acc float64) float64 {
					for i := lo; i < hi; i++ {
						acc += float64(i)
					}
					return acc
				})
			sum, err := j.Result()
			if err != nil {
				panic(err)
			}
			total.Store(tenant, sum)
		}(tenant)
	}
	wg.Wait()
	for tenant := 0; tenant < 4; tenant++ {
		v, _ := total.Load(tenant)
		n := 100000 * (tenant + 1)
		want := float64(n) * float64(n-1) / 2
		fmt.Printf("tenant %d: sum over [0,%d) = %.0f (want %.0f)\n", tenant, n, v, want)
		ok = ok && v == want
	}

	// Fan-out/fan-in with a Group.
	g := pool.Group()
	out := make([]int, 1<<16)
	g.ForEach(len(out), func(i int) { out[i] = 2 * i })
	count := g.Reduce(len(out), 0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 { return acc + float64(hi-lo) })
	if err := g.Wait(); err != nil {
		panic(err)
	}
	c, _ := count.Result()
	fmt.Printf("group: doubled %d elements, counted %.0f\n", len(out), c)
	ok = ok && c == float64(len(out))

	// Cancellation: a job canceled before it starts never runs. A blocker
	// job holds every worker first, so the job is still queued when Cancel
	// comes (on an idle pool, Submit would start it at once).
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(pool.Workers())
	blocker := pool.SubmitOpts(pool.Workers(), loopsched.JobOptions{Grain: 1}, func(i int) {
		held.Done()
		<-release
	})
	held.Wait()
	var ran atomic.Bool
	j := pool.Submit(10, func(i int) { ran.Store(true) })
	canceled := j.Cancel()
	close(release)
	if err := blocker.Wait(); err != nil {
		panic(err)
	}
	fmt.Printf("canceled a queued job: %v, Wait = %v, body ran: %v\n", canceled, j.Wait(), ran.Load())
	ok = ok && canceled && !ran.Load()

	pool.Close()
	if !ok {
		fmt.Println("FAIL: a result differs from its expectation")
		os.Exit(1)
	}
}
