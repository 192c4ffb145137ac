package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"loopsched/internal/sched"
	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

// testConfigs enumerates the scheduler variants exercised by every test.
func testConfigs(p int) []Config {
	return []Config{
		{Workers: p, Barrier: BarrierTree, Mode: ModeHalf, LockOSThread: false},
		{Workers: p, Barrier: BarrierCentralized, Mode: ModeHalf, LockOSThread: false},
		{Workers: p, Barrier: BarrierTree, Mode: ModeFull, LockOSThread: false},
		{Workers: p, Barrier: BarrierCentralized, Mode: ModeFull, LockOSThread: false},
	}
}

func workerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1, 2, 3, 4, 7, 8}
	var out []int
	for _, c := range counts {
		if c <= max {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// TestConformance runs the shared scheduler suite on every barrier×mode
// variant, with the static and with the stealing iteration policy. All of
// them reduce in worker order, so the ordered suite applies.
func TestConformance(t *testing.T) {
	for _, cfg := range testConfigs(0) {
		for _, steal := range []bool{false, true} {
			cfg.Steal = steal
			name := cfg.defaultName()
			if steal && name != "hybrid" {
				name += "-steal"
			}
			t.Run(name, func(t *testing.T) {
				schedtest.Run(t, schedtest.WorkerCounts(runtime.GOMAXPROCS(0)), func(p int) sched.Scheduler {
					c := cfg
					c.Workers = p
					return New(c)
				})
			})
		}
	}
}

func TestForCoversAllIterations(t *testing.T) {
	for _, p := range workerCounts() {
		for _, cfg := range testConfigs(p) {
			s := New(cfg)
			for _, n := range []int{0, 1, 2, 5, 17, 100, 1001, 4096} {
				marks := make([]int32, n)
				s.For(n, func(w, begin, end int) {
					for i := begin; i < end; i++ {
						atomic.AddInt32(&marks[i], 1)
					}
				})
				for i, m := range marks {
					if m != 1 {
						t.Fatalf("%s p=%d n=%d: iteration %d executed %d times", s.Name(), p, n, i, m)
					}
				}
			}
			s.Close()
		}
	}
}

func TestForWorkerIDsAreDistinctAndInRange(t *testing.T) {
	for _, p := range workerCounts() {
		cfg := Config{Workers: p, Barrier: BarrierTree, Mode: ModeHalf, LockOSThread: false}
		s := New(cfg)
		n := 16 * p
		seen := make([]int32, p)
		s.For(n, func(w, begin, end int) {
			if w < 0 || w >= p {
				t.Errorf("worker id %d out of range [0,%d)", w, p)
				return
			}
			atomic.AddInt32(&seen[w], 1)
		})
		var active int
		for _, c := range seen {
			if c > 1 {
				t.Errorf("worker invoked %d times in one loop, want at most 1", c)
			}
			if c > 0 {
				active++
			}
		}
		if active == 0 {
			t.Errorf("no workers participated")
		}
		s.Close()
	}
}

func TestForReduceSum(t *testing.T) {
	for _, p := range workerCounts() {
		for _, cfg := range testConfigs(p) {
			s := New(cfg)
			for _, n := range []int{1, 2, 13, 100, 1000, 12345} {
				got := s.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
					func(w, begin, end int, acc float64) float64 {
						for i := begin; i < end; i++ {
							acc += float64(i)
						}
						return acc
					})
				want := float64(n) * float64(n-1) / 2
				if got != want {
					t.Fatalf("%s p=%d n=%d: sum = %v, want %v", s.Name(), p, n, got, want)
				}
			}
			s.Close()
		}
	}
}

func TestForReduceNonCommutativeOrder(t *testing.T) {
	// The reducer contract the paper preserves: partial results are combined
	// in iteration order. Two associative, non-commutative operations make
	// order violations observable with scalar views:
	//
	//   "last"  — combine(a,b)=b: the fold's result is the final operand,
	//             which must be the last worker's partial (its block ends at n);
	//   "first" — combine(a,b)= a unless a is the identity: the result is
	//             the first non-identity operand, which must be worker 0's
	//             partial (its block starts at 0).
	for _, p := range workerCounts() {
		for _, cfg := range testConfigs(p) {
			s := New(cfg)
			n := 97

			last := s.ForReduce(n, -1, func(a, b float64) float64 { return b },
				func(w, begin, end int, acc float64) float64 { return float64(end) })
			if last != float64(n) {
				t.Fatalf("%s p=%d: 'last' fold = %v, want %v (iteration order violated)", s.Name(), p, last, float64(n))
			}

			const ident = -1
			first := s.ForReduce(n, ident, func(a, b float64) float64 {
				if a != ident {
					return a
				}
				return b
			}, func(w, begin, end int, acc float64) float64 { return float64(begin) })
			if first != 0 {
				t.Fatalf("%s p=%d: 'first' fold = %v, want 0 (iteration order violated)", s.Name(), p, first)
			}
			s.Close()
		}
	}
}

// TestForCombineOrderedAppend folds caller-owned slice views by
// concatenation, the canonical non-commutative reducer: the result must be
// 0..n-1 exactly, after exactly P-1 combines, for every barrier and mode —
// including the centralized full-barrier join, which folds serially after
// the barrier instead of inside the wave.
func TestForCombineOrderedAppend(t *testing.T) {
	for _, p := range workerCounts() {
		for _, cfg := range testConfigs(p) {
			s := New(cfg)
			for _, n := range []int{1, 13, 2000} {
				views := make([][]int, p)
				var combines atomic.Int32
				s.ForCombine(n, func(w, begin, end int) {
					for i := begin; i < end; i++ {
						views[w] = append(views[w], i)
					}
				}, func(into, from int) {
					combines.Add(1)
					views[into] = append(views[into], views[from]...)
					views[from] = nil
				})
				if c := int(combines.Load()); p > 1 && c != p-1 {
					t.Fatalf("%s p=%d n=%d: %d combines, want %d", s.Name(), p, n, c, p-1)
				}
				got := views[0]
				if len(got) != n {
					t.Fatalf("%s p=%d n=%d: got %d elements", s.Name(), p, n, len(got))
				}
				for i, v := range got {
					if v != i {
						t.Fatalf("%s p=%d n=%d: element %d = %d (iteration order violated)", s.Name(), p, n, i, v)
					}
				}
			}
			s.Close()
		}
	}
}

func TestForReduceVec(t *testing.T) {
	for _, p := range workerCounts() {
		for _, cfg := range testConfigs(p) {
			s := New(cfg)
			n := 1000
			got := s.ForReduceVec(n, 3, func(w, begin, end int, acc []float64) {
				for i := begin; i < end; i++ {
					acc[0] += 1
					acc[1] += float64(i)
					acc[2] += float64(i) * float64(i)
				}
			})
			wantCount := float64(n)
			wantSum := float64(n) * float64(n-1) / 2
			var wantSq float64
			for i := 0; i < n; i++ {
				wantSq += float64(i) * float64(i)
			}
			if got[0] != wantCount || got[1] != wantSum || math.Abs(got[2]-wantSq) > 1e-6 {
				t.Fatalf("%s p=%d: vec reduce = %v, want [%v %v %v]", s.Name(), p, got, wantCount, wantSum, wantSq)
			}
			s.Close()
		}
	}
}

func TestManyConsecutiveLoops(t *testing.T) {
	// Stress the episode logic: many back-to-back loops, alternating plain
	// and reducing, must not deadlock or corrupt results.
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	for _, cfg := range testConfigs(p) {
		s := New(cfg)
		var total int64
		for it := 0; it < 300; it++ {
			n := 1 + (it*37)%200
			if it%2 == 0 {
				var local int64
				s.For(n, func(w, begin, end int) {
					atomic.AddInt64(&local, int64(end-begin))
				})
				total += local
			} else {
				got := s.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
					func(w, begin, end int, acc float64) float64 { return acc + float64(end-begin) })
				if int(got) != n {
					t.Fatalf("%s iter %d: count = %v, want %d", s.Name(), it, got, n)
				}
			}
		}
		_ = total
		s.Close()
	}
}

func TestExactlyPMinus1Reductions(t *testing.T) {
	// The paper's claim: the fine-grain runtime performs exactly P-1
	// reduction operations per reducing loop.
	for _, p := range workerCounts() {
		if p < 2 {
			continue
		}
		cfg := Config{Workers: p, Barrier: BarrierTree, Mode: ModeHalf, LockOSThread: false}
		s := New(cfg)
		s.Counters().Reset()
		loops := 10
		for i := 0; i < loops; i++ {
			s.ForReduce(1000, 0, func(a, b float64) float64 { return a + b },
				func(w, begin, end int, acc float64) float64 { return acc + float64(end-begin) })
		}
		got := s.Counters().Get(trace.Reductions)
		want := int64(loops * (p - 1))
		if got != want {
			t.Errorf("p=%d: %d reductions over %d loops, want exactly %d", p, got, loops, want)
		}
		s.Close()
	}
}

func TestHalfBarrierDoesNotUseFullBarrier(t *testing.T) {
	p := 4
	if runtime.GOMAXPROCS(0) < 4 {
		p = runtime.GOMAXPROCS(0)
	}
	s := New(Config{Workers: p, Barrier: BarrierTree, Mode: ModeHalf, LockOSThread: false})
	defer s.Close()
	s.Counters().Reset()
	s.For(100, func(w, begin, end int) {})
	if got := s.Counters().Get(trace.BarrierEpisodes); got != 0 {
		t.Errorf("half-barrier mode executed %d full-barrier episodes, want 0", got)
	}
	if got := s.Counters().Get(trace.ForkPhases); got != 1 {
		t.Errorf("fork phases = %d, want 1", got)
	}
	if got := s.Counters().Get(trace.JoinPhases); got != 1 {
		t.Errorf("join phases = %d, want 1", got)
	}
}

func TestFullBarrierModeUsesTwoBarriers(t *testing.T) {
	p := 4
	if runtime.GOMAXPROCS(0) < 4 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 2 {
		t.Skip("needs at least 2 workers")
	}
	s := New(Config{Workers: p, Barrier: BarrierTree, Mode: ModeFull, LockOSThread: false})
	defer s.Close()
	s.Counters().Reset()
	s.For(100, func(w, begin, end int) {})
	if got := s.Counters().Get(trace.BarrierEpisodes); got != 2 {
		t.Errorf("full-barrier mode executed %d barrier episodes, want 2", got)
	}
}

func TestCloseIsIdempotentAndUseAfterClosePanics(t *testing.T) {
	s := New(Config{Workers: 2, LockOSThread: false})
	s.For(10, func(w, b, e int) {})
	s.Close()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on use after Close")
		}
	}()
	s.For(10, func(w, b, e int) {})
}

func TestSchedulerNames(t *testing.T) {
	cases := map[string]Config{
		"fine-grain-tree":              {Barrier: BarrierTree, Mode: ModeHalf},
		"fine-grain-centralized":       {Barrier: BarrierCentralized, Mode: ModeHalf},
		"fine-grain-tree-full-barrier": {Barrier: BarrierTree, Mode: ModeFull},
		"hybrid":                       {Barrier: BarrierTree, Mode: ModeHalf, Steal: true},
	}
	for want, cfg := range cases {
		if got := cfg.defaultName(); got != want {
			t.Errorf("defaultName(%+v) = %q, want %q", cfg, got, want)
		}
	}
	cfg := Config{Name: "custom"}
	if got := cfg.defaultName(); got != "custom" {
		t.Errorf("explicit name not honoured: %q", got)
	}
}

func TestPropertyReduceMatchesSequential(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 6 {
		p = 6
	}
	s := New(Config{Workers: p, Barrier: BarrierTree, Mode: ModeHalf, LockOSThread: false})
	defer s.Close()
	seq := sched.NewSequential()

	f := func(raw []float64) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		// Clamp magnitudes so that floating-point reassociation across the
		// parallel fold stays within a tight tolerance of the sequential sum
		// (addition is associative only approximately).
		vals := make([]float64, n)
		for i, v := range raw {
			vals[i] = math.Remainder(v, 1000)
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		body := func(w, begin, end int, acc float64) float64 {
			for i := begin; i < end; i++ {
				acc += vals[i]
			}
			return acc
		}
		combine := func(a, b float64) float64 { return a + b }
		got := s.ForReduce(n, 0, combine, body)
		want := seq.ForReduce(n, 0, combine, body)
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyForEquivalentToSequentialMap(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 6 {
		p = 6
	}
	s := New(Config{Workers: p, Barrier: BarrierCentralized, Mode: ModeHalf, LockOSThread: false})
	defer s.Close()

	f := func(vals []int32) bool {
		n := len(vals)
		out := make([]int64, n)
		s.For(n, func(w, begin, end int) {
			for i := begin; i < end; i++ {
				out[i] = int64(vals[i]) * 3
			}
		})
		for i := range vals {
			if out[i] != int64(vals[i])*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSingleWorkerFastPath(t *testing.T) {
	s := New(Config{Workers: 1, LockOSThread: false})
	defer s.Close()
	var count int
	s.For(100, func(w, begin, end int) {
		if w != 0 {
			t.Errorf("worker id %d on single-worker scheduler", w)
		}
		count += end - begin
	})
	if count != 100 {
		t.Errorf("executed %d iterations, want 100", count)
	}
	got := s.ForReduce(50, 1, func(a, b float64) float64 { return a * b },
		func(w, begin, end int, acc float64) float64 { return acc })
	if got != 1 {
		t.Errorf("identity-only reduce = %v, want 1", got)
	}
}

func TestEmptyLoopsAreNoOps(t *testing.T) {
	s := New(Config{Workers: 2, LockOSThread: false})
	defer s.Close()
	called := false
	s.For(0, func(w, b, e int) { called = true })
	s.For(-5, func(w, b, e int) { called = true })
	if called {
		t.Errorf("body called for empty loop")
	}
	if got := s.ForReduce(0, 7, func(a, b float64) float64 { return a + b }, nil); got != 7 {
		t.Errorf("empty reduce = %v, want identity 7", got)
	}
	v := s.ForReduceVec(0, 3, nil)
	if len(v) != 3 || v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Errorf("empty vec reduce = %v, want zeros", v)
	}
}
