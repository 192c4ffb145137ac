package cilk

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/reduce"
	"loopsched/internal/sched"
	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

func counts() []int { return schedtest.WorkerCounts(runtime.GOMAXPROCS(0)) }

func TestConformance(t *testing.T) {
	schedtest.Run(t, counts(), func(p int) sched.Scheduler {
		return New(Config{Workers: p, LockOSThread: false})
	})
}

func TestConformanceCoarseGrain(t *testing.T) {
	schedtest.Run(t, counts(), func(p int) sched.Scheduler {
		return New(Config{Workers: p, Grain: 128, LockOSThread: false})
	})
}

func TestStealsHappenUnderLoad(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		t.Skip("needs at least 2 workers")
	}
	if p > 8 {
		p = 8
	}
	rt := New(Config{Workers: p, LockOSThread: false})
	defer rt.Close()
	rt.Counters().Reset()
	// A loop built to be unbalanced: every iteration of the left half spins
	// for a fixed time. The master descends into that half while the right
	// half waits on its deque for at least 32 x 50µs, ample time for a thief
	// to wake and steal it even on an oversubscribed two-core machine.
	const n = 64
	for rep := 0; rep < 20 && rt.Counters().Get(trace.Steals) == 0; rep++ {
		rt.For(n, func(w, begin, end int) {
			for i := begin; i < end && i < n/2; i++ {
				for deadline := time.Now().Add(50 * time.Microsecond); time.Now().Before(deadline); {
				}
			}
		})
	}
	if rt.Counters().Get(trace.Steals) == 0 {
		t.Errorf("no steals observed across repeated unbalanced loops; work stealing appears inert")
	}
	if rt.Counters().Get(trace.Spawns) == 0 {
		t.Errorf("no spawns recorded")
	}
}

func TestReduceViewsExceedPMinus1(t *testing.T) {
	// The paper contrasts baseline Cilk ("operations may be significantly
	// higher") with the fine-grain runtime's exactly P-1 combines. The
	// divide-and-conquer reduction creates one view per spawned subtask, so
	// with the default grain (n / 8P) the combine count is roughly 8·P, far
	// above P-1.
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	if p < 2 {
		t.Skip("needs at least 2 workers")
	}
	rt := New(Config{Workers: p, LockOSThread: false})
	defer rt.Close()
	rt.Counters().Reset()
	n := 100000
	got := rt.ForReduce(n, 0, func(a, b float64) float64 { return a + b },
		func(w, b, e int, acc float64) float64 { return acc + float64(e-b) })
	if int(got) != n {
		t.Fatalf("reduce = %v, want %d", got, n)
	}
	reductions := rt.Counters().Get(trace.Reductions)
	if reductions <= int64(p-1) {
		t.Errorf("baseline Cilk performed %d combines, expected significantly more than P-1=%d", reductions, p-1)
	}
	if views := rt.Counters().Get(trace.ViewsCreated); views != reductions {
		t.Errorf("views created (%d) != combines (%d); every spawned subtask should own a view", views, reductions)
	}
}

func TestGrainDefault(t *testing.T) {
	rt := New(Config{Workers: 4, LockOSThread: false})
	defer rt.Close()
	if g := rt.grainFor(32 * 8 * 4); g != 32 {
		t.Errorf("default grain for n=1024, p=4: got %d, want 32", g)
	}
	if g := rt.grainFor(1); g != 1 {
		t.Errorf("grain must be at least 1, got %d", g)
	}
	rt2 := New(Config{Workers: 4, Grain: 100, LockOSThread: false})
	defer rt2.Close()
	if g := rt2.grainFor(100000); g != 100 {
		t.Errorf("explicit grain not honoured: %d", g)
	}
}

func TestDequeSequential(t *testing.T) {
	d := newDeque()
	if d.popBottom() != nil || d.steal() != nil {
		t.Fatalf("empty deque returned a task")
	}
	tasks := make([]*task, 100)
	for i := range tasks {
		tasks[i] = &task{}
		d.pushBottom(tasks[i])
	}
	if d.size() != 100 {
		t.Errorf("size = %d, want 100", d.size())
	}
	// LIFO from the bottom.
	for i := 99; i >= 50; i-- {
		if got := d.popBottom(); got != tasks[i] {
			t.Fatalf("popBottom returned wrong task at %d", i)
		}
	}
	// FIFO from the top.
	for i := 0; i < 50; i++ {
		if got := d.steal(); got != tasks[i] {
			t.Fatalf("steal returned wrong task at %d", i)
		}
	}
	if d.popBottom() != nil || d.steal() != nil {
		t.Errorf("deque should be empty")
	}
}

func TestDequeGrowth(t *testing.T) {
	d := newDeque()
	const n = 10000 // forces several buffer growths from the initial 64
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = &task{}
		d.pushBottom(tasks[i])
	}
	for i := n - 1; i >= 0; i-- {
		if got := d.popBottom(); got != tasks[i] {
			t.Fatalf("after growth, popBottom mismatch at %d", i)
		}
	}
}

func TestDequeConcurrentStealers(t *testing.T) {
	d := newDeque()
	const n = 50000
	for i := 0; i < n; i++ {
		d.pushBottom(&task{})
	}
	thieves := 4
	var stolen atomic.Int64
	done := make(chan struct{})
	for i := 0; i < thieves; i++ {
		go func() {
			for {
				if t := d.steal(); t != nil {
					stolen.Add(1)
				} else if d.size() == 0 {
					break
				}
			}
			done <- struct{}{}
		}()
	}
	var popped int64
	for d.size() > 0 {
		if t := d.popBottom(); t != nil {
			popped++
		}
	}
	for i := 0; i < thieves; i++ {
		<-done
	}
	if got := stolen.Load() + popped; got != n {
		t.Errorf("claimed %d tasks (stolen %d, popped %d), want exactly %d", got, stolen.Load(), popped, n)
	}
}

func TestReducerHyperobject(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	rt := New(Config{Workers: p, LockOSThread: false})
	defer rt.Close()

	r := NewReducer(rt, reduce.Sum[float64]())
	n := 10000
	rt.For(n, func(w, begin, end int) {
		for i := begin; i < end; i++ {
			r.Update(w, float64(i))
		}
	})
	got := r.Get()
	want := float64(n) * float64(n-1) / 2
	if got != want {
		t.Errorf("reducer sum = %v, want %v", got, want)
	}
	// After Get the reducer is reset.
	if again := r.Get(); again != 0 {
		t.Errorf("reducer not reset after Get: %v", again)
	}
}

func TestReducerListOrder(t *testing.T) {
	// With a single worker the list reducer must reproduce sequential order
	// exactly (baseline Cilk guarantees this; with multiple workers our
	// simplified model merges per-worker views in worker order, which
	// preserves order only for contiguous per-worker chunks, so the test
	// pins the single-worker contract).
	rt := New(Config{Workers: 1, LockOSThread: false})
	defer rt.Close()
	r := NewReducer(rt, reduce.Append[int]())
	n := 100
	rt.For(n, func(w, begin, end int) {
		for i := begin; i < end; i++ {
			r.Update(w, []int{i})
		}
	})
	got := r.Get()
	if len(got) != n {
		t.Fatalf("list reducer length %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("list reducer order violated at %d: %v", i, v)
		}
	}
}

func TestRuntimeStringAndClose(t *testing.T) {
	rt := New(Config{Workers: 2, LockOSThread: false})
	if rt.String() == "" || rt.Name() != "cilk" || rt.P() != 2 {
		t.Errorf("metadata wrong: %q %q %d", rt.String(), rt.Name(), rt.P())
	}
	rt.Close()
	rt.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on use after Close")
		}
	}()
	rt.For(10, func(w, b, e int) {})
}
