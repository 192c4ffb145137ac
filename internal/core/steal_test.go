package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"loopsched/internal/iterspace"
	"loopsched/internal/sched"
	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

// newStealing returns a stealing tree half-barrier scheduler whose policy
// starts at coarse iterations and claims chunk iterations at a time (0
// keeps the defaults).
func newStealing(p, coarse, chunk int) *Scheduler {
	s := New(Config{Workers: p, Steal: true, LockOSThread: false})
	if coarse > 0 {
		s.coarse = coarse
	}
	s.chunk = chunk
	return s
}

// stealWorkers caps the team at 8 and reports whether the machine has the 2
// processors a stealing test needs.
func stealWorkers() (int, bool) {
	return min(runtime.GOMAXPROCS(0), 8), runtime.GOMAXPROCS(0) >= 2
}

func TestConformanceAllDynamic(t *testing.T) {
	// Force every loop (even tiny ones) onto stealable ranges. ForReduce
	// stays static, but the suite's ordered test is skipped so that only
	// the commutative guarantees are claimed of the stealing path.
	schedtest.RunCommutative(t, schedtest.WorkerCounts(runtime.GOMAXPROCS(0)), func(p int) sched.Scheduler {
		return newStealing(p, 1, 3)
	})
}

func TestFineLoopsUseStaticPathAndCoarseLoopsSteal(t *testing.T) {
	p, ok := stealWorkers()
	if !ok {
		t.Skip("needs 2 workers")
	}
	s := newStealing(p, 1000, 16)
	defer s.Close()

	// Fine-grain loop: below the threshold → no chunks claimed dynamically.
	s.Counters().Reset()
	s.For(100, func(w, b, e int) {})
	if got := s.Counters().Get(trace.ChunksClaimed); got != 0 {
		t.Errorf("fine-grain loop claimed %d dynamic chunks, want 0 (static path)", got)
	}

	// Coarse loop with imbalanced work: chunks are claimed dynamically and,
	// across repetitions, steals occur.
	s.Counters().Reset()
	var sink atomic.Int64
	for rep := 0; rep < 20 && s.Counters().Get(trace.Steals) == 0; rep++ {
		s.For(200000, func(w, begin, end int) {
			local := int64(0)
			// Imbalanced: later iterations are much heavier.
			for i := begin; i < end; i++ {
				steps := 1 + (i*7)%97
				for j := 0; j < steps; j++ {
					local++
				}
			}
			sink.Add(local)
		})
	}
	if got := s.Counters().Get(trace.ChunksClaimed); got == 0 {
		t.Errorf("coarse loop claimed no dynamic chunks")
	}
	if got := s.Counters().Get(trace.Steals); got == 0 {
		t.Errorf("no steals observed on an imbalanced coarse loop")
	}
}

func TestDynamicLoadBalancingCoversEverything(t *testing.T) {
	s := newStealing(min(runtime.GOMAXPROCS(0), 6), 1, 5)
	defer s.Close()
	n := 50000
	marks := make([]int32, n)
	s.For(n, func(w, begin, end int) {
		for i := begin; i < end; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("iteration %d executed %d times", i, m)
		}
	}
}

func TestReduceUsesExactlyPMinus1Combines(t *testing.T) {
	p, ok := stealWorkers()
	if !ok {
		t.Skip("needs 2 workers")
	}
	// A coarse ForReduce on a stealing scheduler still runs static blocks
	// and folds them in the join wave.
	s := newStealing(p, 0, 0)
	defer s.Close()
	s.Counters().Reset()
	got := s.ForReduce(100000, 0, func(a, b float64) float64 { return a + b },
		func(w, b, e int, acc float64) float64 { return acc + float64(e-b) })
	if int(got) != 100000 {
		t.Fatalf("reduce = %v", got)
	}
	if c := s.Counters().Get(trace.Reductions); c != int64(p-1) {
		t.Errorf("%d combines, want exactly %d", c, p-1)
	}
	if c := s.Counters().Get(trace.ChunksClaimed); c != 0 {
		t.Errorf("ordered reduction claimed %d dynamic chunks, want 0", c)
	}
}

func TestNameAndClose(t *testing.T) {
	s := New(Config{Workers: 2, Steal: true, LockOSThread: false})
	if s.Name() != "hybrid" || s.P() != 2 {
		t.Errorf("metadata wrong: %q %d", s.Name(), s.P())
	}
	s.Close()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic after Close")
		}
	}()
	s.For(5, func(w, b, e int) {})
}

func TestChunkSizing(t *testing.T) {
	s := newStealing(4, 0, 0)
	defer s.Close()
	if c := s.chunkFor(1000); c != 64 {
		t.Errorf("small-loop chunk = %d, want the 64 floor", c)
	}
	if c := s.chunkFor(64 * 64 * 4 * 10); c != 640 {
		t.Errorf("large-loop chunk = %d, want 640", c)
	}
	s.chunk = 17
	if c := s.chunkFor(1 << 20); c != 17 {
		t.Errorf("fixed chunk not honoured: %d", c)
	}
}

func TestStealRange(t *testing.T) {
	var sr stealRange
	sr.reset(iterspace.Range{Begin: 0, End: 100})
	if got := sr.take(10); got.Begin != 0 || got.End != 10 {
		t.Fatalf("take = %v", got)
	}
	if got := sr.stealHalf(); got.Begin != 55 || got.End != 100 {
		t.Fatalf("stealHalf = %v, want [55,100)", got)
	}
	if got := sr.take(1000); got.Begin != 10 || got.End != 55 {
		t.Fatalf("take after steal = %v, want [10,55)", got)
	}
	if !sr.take(1).Empty() {
		t.Errorf("expected exhausted range")
	}
	if !sr.stealHalf().Empty() {
		t.Errorf("stealing from an exhausted range should fail")
	}
	// A single remaining iteration cannot be stolen.
	sr.reset(iterspace.Range{Begin: 5, End: 6})
	if !sr.stealHalf().Empty() {
		t.Errorf("single-iteration range should not be stealable")
	}
	if got := sr.take(4); got.Len() != 1 {
		t.Errorf("owner should still claim the last iteration, got %v", got)
	}
}
