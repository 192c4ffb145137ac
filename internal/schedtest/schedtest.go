// Package schedtest provides a conformance suite for implementations of the
// sched.Scheduler interface. Every runtime in this repository (the
// fine-grain scheduler in each of its variants and iteration policies, the
// OpenMP-style baselines and the Cilk-style baseline) runs this suite from
// its own test package, so behavioural guarantees — full coverage of the
// iteration space, correct reductions, iteration-order combination,
// reusability across many loops — are enforced uniformly.
package schedtest

import (
	"math"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
)

// Factory creates a fresh scheduler with approximately p workers. The
// returned scheduler is closed by the suite.
type Factory func(p int) sched.Scheduler

// Run executes the full conformance suite against the factory, including
// the iteration-order reduction test. Use it for runtimes that guarantee
// ordered (non-commutative-safe) reductions: the fine-grain scheduler, the
// OpenMP static schedule and the Cilk-style divide-and-conquer loops.
func Run(t *testing.T, workerCounts []int, factory Factory) {
	t.Helper()
	run(t, workerCounts, factory, true)
}

// RunCommutative executes the suite without the iteration-order test, for
// runtimes whose dynamic chunk assignment only supports commutative
// reductions (OpenMP dynamic and guided schedules).
func RunCommutative(t *testing.T, workerCounts []int, factory Factory) {
	t.Helper()
	run(t, workerCounts, factory, false)
}

func run(t *testing.T, workerCounts []int, factory Factory, ordered bool) {
	t.Run("Coverage", func(t *testing.T) { testCoverage(t, workerCounts, factory) })
	t.Run("ReduceSum", func(t *testing.T) { testReduceSum(t, workerCounts, factory) })
	if ordered {
		t.Run("ReduceOrder", func(t *testing.T) { testReduceOrder(t, workerCounts, factory) })
	}
	t.Run("ReduceVec", func(t *testing.T) { testReduceVec(t, workerCounts, factory) })
	t.Run("ManyLoops", func(t *testing.T) { testManyLoops(t, workerCounts, factory) })
	t.Run("EmptyLoops", func(t *testing.T) { testEmptyLoops(t, factory) })
	t.Run("WorkerIDs", func(t *testing.T) { testWorkerIDs(t, workerCounts, factory) })
}

func testCoverage(t *testing.T, counts []int, factory Factory) {
	for _, p := range counts {
		s := factory(p)
		for _, n := range []int{1, 2, 3, 7, 64, 1000, 4097} {
			marks := make([]int32, n)
			s.For(n, func(w, begin, end int) {
				for i := begin; i < end; i++ {
					atomic.AddInt32(&marks[i], 1)
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("%s p=%d n=%d: iteration %d executed %d times, want 1", s.Name(), p, n, i, m)
				}
			}
		}
		s.Close()
	}
}

func testReduceSum(t *testing.T, counts []int, factory Factory) {
	for _, p := range counts {
		s := factory(p)
		for _, n := range []int{1, 10, 999, 32768} {
			got := s.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
				func(w, begin, end int, acc float64) float64 {
					for i := begin; i < end; i++ {
						acc += float64(i)
					}
					return acc
				})
			want := float64(n) * float64(n-1) / 2
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("%s p=%d n=%d: sum = %v, want %v", s.Name(), p, n, got, want)
			}
		}
		s.Close()
	}
}

func testReduceOrder(t *testing.T, counts []int, factory Factory) {
	// "last" fold: combine(a,b)=b, body returns its end — the result must be
	// the end of the last chunk in iteration order, i.e. n.
	for _, p := range counts {
		s := factory(p)
		n := 1003
		last := s.ForReduce(n, -1, func(a, b float64) float64 { return b },
			func(w, begin, end int, acc float64) float64 { return float64(end) })
		if last != float64(n) {
			t.Fatalf("%s p=%d: order-sensitive fold = %v, want %v", s.Name(), p, last, float64(n))
		}
		// "first" fold: result must be the begin of the first chunk, i.e. 0.
		const ident = -1
		first := s.ForReduce(n, ident, func(a, b float64) float64 {
			if a != ident {
				return a
			}
			return b
		}, func(w, begin, end int, acc float64) float64 { return float64(begin) })
		if first != 0 {
			t.Fatalf("%s p=%d: 'first' fold = %v, want 0", s.Name(), p, first)
		}
		s.Close()
	}
}

func testReduceVec(t *testing.T, counts []int, factory Factory) {
	for _, p := range counts {
		s := factory(p)
		n := 2500
		got := s.ForReduceVec(n, 4, func(w, begin, end int, acc []float64) {
			for i := begin; i < end; i++ {
				x := float64(i)
				acc[0]++
				acc[1] += x
				acc[2] += x * x
				acc[3] += 1 / (1 + x)
			}
		})
		var want [4]float64
		for i := 0; i < n; i++ {
			x := float64(i)
			want[0]++
			want[1] += x
			want[2] += x * x
			want[3] += 1 / (1 + x)
		}
		for k := 0; k < 4; k++ {
			if math.Abs(got[k]-want[k]) > 1e-6*(1+math.Abs(want[k])) {
				t.Fatalf("%s p=%d: vec[%d] = %v, want %v", s.Name(), p, k, got[k], want[k])
			}
		}
		s.Close()
	}
}

func testManyLoops(t *testing.T, counts []int, factory Factory) {
	for _, p := range counts {
		s := factory(p)
		for it := 0; it < 150; it++ {
			n := 1 + (it*53)%500
			switch it % 3 {
			case 0:
				var sum int64
				s.For(n, func(w, begin, end int) { atomic.AddInt64(&sum, int64(end-begin)) })
				if sum != int64(n) {
					t.Fatalf("%s p=%d it=%d: covered %d of %d iterations", s.Name(), p, it, sum, n)
				}
			case 1:
				got := s.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
					func(w, begin, end int, acc float64) float64 { return acc + float64(end-begin) })
				if int(got) != n {
					t.Fatalf("%s p=%d it=%d: reduce count %v, want %d", s.Name(), p, it, got, n)
				}
			default:
				v := s.ForReduceVec(n, 2, func(w, begin, end int, acc []float64) {
					acc[0] += float64(end - begin)
					acc[1] += 1
				})
				if int(v[0]) != n {
					t.Fatalf("%s p=%d it=%d: vec count %v, want %d", s.Name(), p, it, v[0], n)
				}
			}
		}
		s.Close()
	}
}

func testEmptyLoops(t *testing.T, factory Factory) {
	s := factory(2)
	defer s.Close()
	called := false
	s.For(0, func(w, b, e int) { called = true })
	s.For(-1, func(w, b, e int) { called = true })
	if called {
		t.Errorf("%s: body invoked for an empty loop", s.Name())
	}
	if got := s.ForReduce(0, 42, func(a, b float64) float64 { return a + b }, nil); got != 42 {
		t.Errorf("%s: empty reduce = %v, want the identity 42", s.Name(), got)
	}
	v := s.ForReduceVec(-3, 2, nil)
	if len(v) != 2 || v[0] != 0 || v[1] != 0 {
		t.Errorf("%s: empty vec reduce = %v, want [0 0]", s.Name(), v)
	}
}

func testWorkerIDs(t *testing.T, counts []int, factory Factory) {
	for _, p := range counts {
		s := factory(p)
		maxP := s.P()
		var bad atomic.Int64
		s.For(1000, func(w, begin, end int) {
			if w < 0 || w >= maxP {
				bad.Add(1)
			}
		})
		if bad.Load() > 0 {
			t.Errorf("%s p=%d: %d chunks reported out-of-range worker ids", s.Name(), p, bad.Load())
		}
		if s.Name() == "" {
			t.Errorf("scheduler has empty name")
		}
		s.Close()
	}
}

// WorkerCounts returns a conservative set of worker counts for the current
// machine, always including 1 and 2.
func WorkerCounts(max int) []int {
	cand := []int{1, 2, 3, 4, 6, 8}
	var out []int
	for _, c := range cand {
		if c <= max {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}
