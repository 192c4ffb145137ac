// Benchmarks regenerating the paper's evaluation with `go test -bench`.
//
// One benchmark family exists per table/figure:
//
//   - BenchmarkTable1_LoopLaunch — the scheduler-burden micro-benchmark
//     behind Table 1: the cost of dispatching one fine-grain parallel loop
//     under each scheduler. The full Amdahl fit (the d values of Table 1) is
//     produced by `go run ./cmd/burden`; the per-launch cost benchmarked
//     here is the quantity that fit estimates.
//   - BenchmarkTable1_Burden — the actual least-squares burden estimate,
//     reported as a custom metric (burden-us).
//   - BenchmarkFigure2_MPDATA — one MPDATA time step on the paper's grid
//     under the fine-grain and OpenMP-style schedulers (Figure 2).
//   - BenchmarkFigure3_Linreg — the linear-regression reduction under the
//     fine-grain, Cilk-style and OpenMP-style runtimes (Figure 3).
//   - BenchmarkAblation_* — the design-choice ablations (half vs. full
//     barrier, tree vs. centralized, tree fan-out, merged vs. separate
//     reduction).
//   - BenchmarkBarrier_* — raw synchronisation primitive costs.
package loopsched_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"loopsched/internal/barrier"
	"loopsched/internal/bench"
	"loopsched/internal/core"
	"loopsched/internal/grid"
	"loopsched/internal/jobs"
	"loopsched/internal/linreg"
	"loopsched/internal/mpdata"
	"loopsched/internal/sched"
	"loopsched/internal/topology"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// table1LoopIters is the size of the fine-grain probe loop: ~256 iterations
// of ~100 ns is a ~25 µs loop, comparable to the burden of the heavier
// schedulers — exactly the regime Table 1 characterises.
const table1LoopIters = 256

func benchWorkers() int { return runtime.GOMAXPROCS(0) }

// BenchmarkTable1_LoopLaunch measures the wall-clock cost of one parallel
// loop launch (including its ~25 µs of work) under every scheduler of
// Table 1. The differences between schedulers are their burden.
func BenchmarkTable1_LoopLaunch(b *testing.B) {
	work := workload.Calibrate(100)
	body := func(w, begin, end int) { workload.Consume(work.Run(begin, end)) }
	for _, name := range bench.Table1Schedulers() {
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewScheduler(name, benchWorkers())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			s.For(table1LoopIters, body) // warm up the team
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.For(table1LoopIters, body)
			}
		})
	}
}

// BenchmarkTable1_Burden runs the granularity sweep and Amdahl fit for each
// Table 1 scheduler and reports the estimated burden as a custom metric.
// It is insensitive to b.N (the sweep is a fixed-size experiment), so run it
// with -benchtime=1x.
func BenchmarkTable1_Burden(b *testing.B) {
	opt := bench.BurdenOptions{
		Workers:    benchWorkers(),
		Iterations: 4096,
		MinTotal:   20 * time.Microsecond,
		MaxTotal:   5 * time.Millisecond,
		Points:     10,
		Reps:       3,
	}
	for _, name := range bench.Table1Schedulers() {
		b.Run(name, func(b *testing.B) {
			var last bench.BurdenResult
			for i := 0; i < b.N; i++ {
				res, err := bench.MeasureBurden(name, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.BurdenUs(), "burden-us")
			b.ReportMetric(last.Fit.EffectiveP, "effective-P")
		})
	}
}

// BenchmarkFigure2_MPDATA measures one MPDATA time step (3 fine-grain
// parallel loops with one corrective pass) on the paper's 5568-point /
// 16399-edge grid; us/loop divides the step time by that loop count.
func BenchmarkFigure2_MPDATA(b *testing.B) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		b.Fatal(err)
	}
	base, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, s sched.Scheduler) {
		solver := base.Clone()
		solver.Step(s) // warm up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solver.Step(s)
		}
		b.StopTimer()
		loops := float64(solver.LoopsPerStep())
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/loops, "us/loop")
	}
	b.Run("sequential", func(b *testing.B) { run(b, sched.NewSequential()) })
	for _, name := range []string{"fine-grain-tree", "openmp-static", "openmp-dynamic", "cilk", "hybrid"} {
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewScheduler(name, benchWorkers())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			run(b, s)
		})
	}
}

// BenchmarkFigure3_Linreg measures the linear-regression reduction (a single
// reducing parallel loop over the dataset) under each runtime.
func BenchmarkFigure3_Linreg(b *testing.B) {
	data := linreg.Generate(1 << 21)
	run := func(b *testing.B, s sched.Scheduler) {
		if _, err := data.Run(s); err != nil { // warm up + validity
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data.Points) * 2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := data.Run(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, sched.NewSequential()) })
	for _, name := range []string{"fine-grain-tree", "cilk", "openmp-static", "openmp-dynamic", "hybrid"} {
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewScheduler(name, benchWorkers())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			run(b, s)
		})
	}
}

// BenchmarkImbalancedLoop runs one coarse loop whose per-iteration cost
// grows with the index (1 + i/256 inner steps over 2^15 iterations). Static
// blocks leave the early workers idle while the last block finishes; this is
// the load the hybrid's work-stealing policy exists for. Runtimes that count
// steals also report successful and failed steal attempts per loop.
func BenchmarkImbalancedLoop(b *testing.B) {
	const n = 1 << 15
	body := func(w, begin, end int) {
		var acc uint64
		for i := begin; i < end; i++ {
			for j := 0; j <= i/256; j++ {
				acc = acc*6364136223846793005 + uint64(j)
			}
		}
		workload.Consume(acc)
	}
	for _, name := range []string{"fine-grain-tree", "hybrid", "cilk", "openmp-dynamic"} {
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewScheduler(name, benchWorkers())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			s.For(n, body) // warm up the team
			// A nil *trace.Counters counts nothing.
			var counters *trace.Counters
			if c, ok := s.(interface{ Counters() *trace.Counters }); ok {
				counters = c.Counters()
			}
			counters.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.For(n, body)
			}
			b.StopTimer()
			b.ReportMetric(float64(counters.Get(trace.Steals))/float64(b.N), "steals/op")
			b.ReportMetric(float64(counters.Get(trace.FailedSteals))/float64(b.N), "failed-steals/op")
		})
	}
}

// BenchmarkAblation_BarrierPattern isolates the paper's central design
// choice: half-barrier vs. full-barrier and tree vs. centralized, on an
// otherwise identical scheduler, running an empty fine-grain loop so the
// measurement is pure synchronisation.
func BenchmarkAblation_BarrierPattern(b *testing.B) {
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"tree-half", core.Config{Barrier: core.BarrierTree, Mode: core.ModeHalf}},
		{"tree-full", core.Config{Barrier: core.BarrierTree, Mode: core.ModeFull}},
		{"centralized-half", core.Config{Barrier: core.BarrierCentralized, Mode: core.ModeHalf}},
		{"centralized-full", core.Config{Barrier: core.BarrierCentralized, Mode: core.ModeFull}},
	}
	body := func(w, begin, end int) {}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := v.cfg
			cfg.Workers = benchWorkers()
			s := core.New(cfg)
			defer s.Close()
			s.For(64, body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.For(64, body)
			}
		})
	}
}

// BenchmarkAblation_TreeFanout sweeps the tree fan-out, the tuning knob the
// paper adjusts to the machine organisation.
func BenchmarkAblation_TreeFanout(b *testing.B) {
	body := func(w, begin, end int) {}
	for _, fan := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("fanout-%d", fan), func(b *testing.B) {
			s := core.New(core.Config{Workers: benchWorkers(), InnerFanout: fan, OuterFanout: fan})
			defer s.Close()
			s.For(64, body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.For(64, body)
			}
		})
	}
}

// BenchmarkAblation_Reduction compares a reducing loop whose combines are
// merged into the join half-barrier (fine-grain) against the OpenMP-style
// separate reduction barrier and the Cilk-style per-task views — the paper's
// "two half-barriers vs. three full barriers" argument.
func BenchmarkAblation_Reduction(b *testing.B) {
	work := workload.Calibrate(100)
	body := func(w, begin, end int, acc float64) float64 {
		workload.Consume(work.Run(begin, end))
		return acc + float64(end-begin)
	}
	combine := func(a, b float64) float64 { return a + b }
	for _, name := range []string{"fine-grain-tree", "fine-grain-tree-full-barrier", "openmp-static", "cilk"} {
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewScheduler(name, benchWorkers())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			_ = s.ForReduce(table1LoopIters, 0, combine, body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.ForReduce(table1LoopIters, 0, combine, body)
			}
		})
	}
}

// BenchmarkMultitenant_Throughput measures aggregate job throughput when
// concurrent tenants share one persistent team through the jobs subsystem:
// each benchmark iteration has every tenant submit one ~100 µs parallel-loop
// job and wait for it.
func BenchmarkMultitenant_Throughput(b *testing.B) {
	work := workload.Calibrate(100)
	for _, tenants := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("tenants-%d", tenants), func(b *testing.B) {
			s := jobs.New(jobs.Config{Workers: benchWorkers()})
			defer s.Close()
			body := func(w, lo, hi int) { workload.Consume(work.Run(lo, hi)) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						j, err := s.Submit(jobs.Request{N: 1024, Body: body})
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := j.Wait(); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(tenants)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkBarrier_Primitives measures one episode of each raw
// synchronisation primitive with all workers participating: the floor under
// every scheduler's burden.
func BenchmarkBarrier_Primitives(b *testing.B) {
	p := benchWorkers()
	if p < 2 {
		b.Skip("needs at least 2 workers")
	}
	topo := topology.Detect(p)

	// Use a fine-grain scheduler as the vehicle: an empty loop is exactly one
	// fork + one join episode of the underlying primitive.
	b.Run("half-barrier-pair/tree", func(b *testing.B) {
		s := core.New(core.Config{Workers: p, Barrier: core.BarrierTree, Mode: core.ModeHalf})
		defer s.Close()
		body := func(w, begin, end int) {}
		s.For(p, body)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.For(p, body)
		}
	})
	b.Run("full-barrier-pair/tree", func(b *testing.B) {
		s := core.New(core.Config{Workers: p, Barrier: core.BarrierTree, Mode: core.ModeFull})
		defer s.Close()
		body := func(w, begin, end int) {}
		s.For(p, body)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.For(p, body)
		}
	})

	_ = topo
	_ = barrier.NewCentralized(p) // ensure the package is linked even if the sub-benchmarks above are filtered out
}
