package loopsched

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	cfg.DisableThreadLock = true
	if cfg.Workers <= 0 {
		p := runtime.GOMAXPROCS(0)
		if p > 8 {
			p = 8
		}
		cfg.Workers = p
	}
	pool := New(cfg)
	t.Cleanup(pool.Close)
	return pool
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Workers: 1},
		{Workers: 3},
	} {
		pool := testPool(t, cfg)
		n := 5000
		marks := make([]int32, n)
		pool.ForEach(n, func(i int) { atomic.AddInt32(&marks[i], 1) })
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("%v: index %d visited %d times", pool, i, m)
			}
		}
	}
}

func TestForAndForRange(t *testing.T) {
	pool := testPool(t, Config{})
	var covered atomic.Int64
	pool.For(1000, func(worker, low, high int) {
		if worker < 0 || worker >= pool.Workers() {
			t.Errorf("worker %d out of range", worker)
		}
		covered.Add(int64(high - low))
	})
	if covered.Load() != 1000 {
		t.Errorf("For covered %d", covered.Load())
	}
	covered.Store(0)
	pool.ForRange(777, func(low, high int) { covered.Add(int64(high - low)) })
	if covered.Load() != 777 {
		t.Errorf("ForRange covered %d", covered.Load())
	}
}

func TestReduceFloat64(t *testing.T) {
	pool := testPool(t, Config{})
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	got := pool.ReduceFloat64(len(xs), 0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += xs[i]
			}
			return acc
		})
	want := 0.0
	for _, x := range xs {
		want += x
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestReduceVec(t *testing.T) {
	pool := testPool(t, Config{})
	n := 4321
	v := pool.ReduceVec(n, 2, func(w, lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[0]++
			acc[1] += float64(i)
		}
	})
	if int(v[0]) != n || v[1] != float64(n)*float64(n-1)/2 {
		t.Errorf("ReduceVec = %v", v)
	}
}

func TestGenericReduceOrderedAppend(t *testing.T) {
	// The strongest ordering test: concatenating per-iteration slices must
	// reproduce 0..n-1 exactly, for every team size. The barrier and mode
	// variants are core.TestForCombineOrderedAppend.
	for _, cfg := range []Config{{}, {Workers: 1}, {Workers: 3}} {
		pool := testPool(t, cfg)
		n := 2000
		got := Reduce(pool, n, AppendOp[int](), func(w, lo, hi int, acc []int) []int {
			for i := lo; i < hi; i++ {
				acc = append(acc, i)
			}
			return acc
		})
		if len(got) != n {
			t.Fatalf("%v: got %d elements", pool, len(got))
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("%v: ordered reduction violated iteration order", pool)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%v: element %d = %d", pool, i, v)
			}
		}
	}
}

func TestGenericReduceSumAndMax(t *testing.T) {
	pool := testPool(t, Config{})
	n := 10000
	sum := Reduce(pool, n, SumOp[int64](), func(w, lo, hi int, acc int64) int64 {
		for i := lo; i < hi; i++ {
			acc += int64(i)
		}
		return acc
	})
	if sum != int64(n)*int64(n-1)/2 {
		t.Errorf("generic sum = %d", sum)
	}
	max := Reduce(pool, n, MaxOp[int](-1), func(w, lo, hi int, acc int) int {
		for i := lo; i < hi; i++ {
			v := (i * 37) % 1009
			if v > acc {
				acc = v
			}
		}
		return acc
	})
	want := 0
	for i := 0; i < n; i++ {
		if v := (i * 37) % 1009; v > want {
			want = v
		}
	}
	if max != want {
		t.Errorf("generic max = %d, want %d", max, want)
	}
	min := Reduce(pool, n, MinOp[int](1<<62), func(w, lo, hi int, acc int) int {
		for i := lo; i < hi; i++ {
			v := (i*37)%1009 + 3
			if v < acc {
				acc = v
			}
		}
		return acc
	})
	if min != 3 {
		t.Errorf("generic min = %d, want 3", min)
	}
}

func TestReducerHyperobjectStyle(t *testing.T) {
	pool := testPool(t, Config{})
	r := NewReducer(pool, SumOp[int64]())
	n := 5000
	r.ForCombine(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.Update(w, int64(i))
		}
	})
	if got := r.Value(); got != int64(n)*int64(n-1)/2 {
		t.Errorf("reducer value = %d", got)
	}
	// Reusable: a second loop starts from a clean state.
	r.ForCombine(10, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.Update(w, 1)
		}
	})
	if got := r.Value(); got != 10 {
		t.Errorf("second reduction = %d, want 10", got)
	}
	r.Set(0, 41)
	r.Update(0, 1)
	if r.View(0) != 42 {
		t.Errorf("View/Set/Update broken: %d", r.View(0))
	}
}

func TestPoolMetadata(t *testing.T) {
	pool := testPool(t, Config{Workers: 2})
	if pool.Workers() != 2 {
		t.Errorf("Workers = %d", pool.Workers())
	}
	if pool.String() == "" {
		t.Errorf("empty String")
	}
	if pool.Scheduler() == nil || pool.Scheduler().Name() == "" {
		t.Errorf("Scheduler() not exposed")
	}
	// Close is idempotent (Cleanup will close again).
	pool.Close()
}

func TestEmptyLoops(t *testing.T) {
	pool := testPool(t, Config{})
	called := false
	pool.ForEach(0, func(i int) { called = true })
	pool.ForRange(-1, func(lo, hi int) { called = true })
	if called {
		t.Errorf("body invoked for an empty loop")
	}
	if got := Reduce(pool, 0, SumOp[int](), func(w, lo, hi int, acc int) int { return acc + 1 }); got != 0 {
		t.Errorf("empty generic reduce = %d", got)
	}
}

func TestSubmitAsyncMatchesSynchronous(t *testing.T) {
	pool := testPool(t, Config{})
	n := 8192
	sync := make([]float64, n)
	pool.ForEach(n, func(i int) { sync[i] = float64(i) * 1.5 })

	async := make([]float64, n)
	if err := pool.Submit(n, func(i int) { async[i] = float64(i) * 1.5 }).Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range sync {
		if math.Float64bits(async[i]) != math.Float64bits(sync[i]) {
			t.Fatalf("index %d: async %v != sync %v", i, async[i], sync[i])
		}
	}
}

func TestSubmitReduceResult(t *testing.T) {
	pool := testPool(t, Config{})
	n := 12345
	j := pool.SubmitReduce(n, 0, func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += float64(i)
			}
			return acc
		})
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * float64(n-1) / 2; got != want {
		t.Errorf("async sum = %v, want %v", got, want)
	}
}

func TestSubmitOptsKnobs(t *testing.T) {
	pool := testPool(t, Config{})
	n := 4096
	var touched atomic.Int64
	j := pool.SubmitOpts(n, JobOptions{MaxWorkers: 2, Grain: 256, Label: "opts"}, func(i int) {
		touched.Add(1)
	})
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if touched.Load() != int64(n) {
		t.Errorf("touched %d of %d iterations", touched.Load(), n)
	}
	if k := j.Workers(); k < 1 || k > 2 {
		t.Errorf("MaxWorkers=2 job peaked at %d workers", k)
	}
}

func TestSubmitReduceOptsCommutative(t *testing.T) {
	// A commutative reduction runs elastically (arrival-order folding); an
	// integer-valued sum must still be exact.
	pool := testPool(t, Config{})
	n := 23456
	j := pool.SubmitReduceOpts(n, JobOptions{Commutative: true, Grain: 512}, 0,
		func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += float64(i)
			}
			return acc
		})
	got, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * float64(n-1) / 2; got != want {
		t.Errorf("commutative async sum = %v, want %v", got, want)
	}
}
func TestSubmitIsSafeFromManyGoroutines(t *testing.T) {
	pool := testPool(t, Config{})
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := pool.Submit(250, func(i int) { total.Add(1) }).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 12*20*250 {
		t.Errorf("covered %d iterations, want %d", got, 12*20*250)
	}
}

func TestGroupFanOutFanIn(t *testing.T) {
	pool := testPool(t, Config{})
	g := pool.Group()
	outs := make([][]int, 6)
	for k := range outs {
		k := k
		n := 100 * (k + 1)
		outs[k] = make([]int, n)
		g.ForEach(n, func(i int) { outs[k][i] = i + k })
	}
	sum := g.Reduce(1000, 0, func(a, b float64) float64 { return a + b },
		func(w, lo, hi int, acc float64) float64 { return acc + float64(hi-lo) })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for k, out := range outs {
		for i, v := range out {
			if v != i+k {
				t.Fatalf("job %d index %d = %d, want %d", k, i, v, i+k)
			}
		}
	}
	if v, err := sum.Result(); err != nil || v != 1000 {
		t.Errorf("group reduce = %v, %v", v, err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	pool := New(Config{Workers: 2, DisableThreadLock: true})
	if err := pool.Submit(10, func(i int) {}).Wait(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if err := pool.Submit(10, func(i int) {}).Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestCloseWithoutSubmitDoesNotCreateAsyncRuntime(t *testing.T) {
	pool := New(Config{Workers: 2, DisableThreadLock: true})
	pool.ForEach(10, func(i int) {})
	pool.Close() // must not hang or spawn the async team
}

func TestPropertyGenericReduceMatchesSerial(t *testing.T) {
	pool := testPool(t, Config{})
	f := func(vals []int32) bool {
		n := len(vals)
		got := Reduce(pool, n, SumOp[int64](), func(w, lo, hi int, acc int64) int64 {
			for i := lo; i < hi; i++ {
				acc += int64(vals[i])
			}
			return acc
		})
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
func TestPoolTenantAccountsThroughPublicAPI(t *testing.T) {
	// Pool.Tenant registrations made before the async runtime exists must
	// survive into it, and JobOptions.Tenant/Priority/Deadline must land in
	// the runtime's tenant accounting.
	pool := testPool(t, Config{Workers: 2})
	pool.Tenant("gold", 3) // before the lazy runtime is created
	var ran atomic.Int64
	j := pool.SubmitOpts(100, JobOptions{
		Tenant:   "gold",
		Priority: 5,
		Deadline: time.Now().Add(time.Minute),
	}, func(i int) { ran.Add(1) })
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d of 100 iterations", ran.Load())
	}
	if err := pool.Submit(50, func(i int) {}).Wait(); err != nil {
		t.Fatal(err)
	}
	pool.Tenant("silver", 2) // after creation: applied live
	st := pool.AsyncStats()
	gold := st.Total.Tenants["gold"]
	if gold.Weight != 3 || gold.Completed != 1 || gold.IterationsDone != 100 {
		t.Errorf("gold account = %+v, want weight 3, 1 completion, 100 iterations", gold)
	}
	if def := st.Total.Tenants["default"]; def.Completed != 1 {
		t.Errorf("default account = %+v, want the untagged job", def)
	}
}
func TestAsyncObserversDoNotCreateRuntime(t *testing.T) {
	// Stats readers (metrics scrapers) must not instantiate worker teams as
	// a side effect of observing an idle pool.
	pool := testPool(t, Config{Workers: 2})
	if st := pool.AsyncStats(); st.Total.Workers != 0 || st.Shards != nil {
		t.Errorf("AsyncStats on an unused pool = %+v, want the zero value", st)
	}
	pool.jobsMu.Lock()
	created := pool.jobsRT != nil
	pool.jobsMu.Unlock()
	if created {
		t.Error("observer calls instantiated the async runtime")
	}
}

func TestJobThenChain(t *testing.T) {
	pool := testPool(t, Config{Workers: 4})
	const n = 4096
	a := make([]float64, n)
	last := pool.Submit(n, func(i int) { a[i] = float64(i) }).
		Then(n, func(i int) { a[i] *= 2 }).
		ThenReduce(n, 0,
			func(x, y float64) float64 { return x + y },
			func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += a[i]
				}
				return acc
			})
	v, err := last.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * float64(n-1); v != want { // 2 * n(n-1)/2
		t.Errorf("pipeline result = %v, want %v", v, want)
	}
}

func TestSubmitPipelineStages(t *testing.T) {
	pool := testPool(t, Config{Workers: 4})
	const n = 2048
	data := make([]float64, n)
	js := pool.SubmitPipeline(
		Stage{N: n, Body: func(i int) { data[i] = float64(i) }},
		Stage{N: n, For: func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] += 1
			}
		}},
		Stage{N: n, Reduce: &ReduceStage{
			Commutative: true,
			Combine:     func(x, y float64) float64 { return x + y },
			Body: func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += data[i]
				}
				return acc
			},
		}},
	)
	if len(js) != 3 {
		t.Fatalf("got %d handles, want 3", len(js))
	}
	v, err := js[2].Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n)*float64(n-1)/2 + n; v != want {
		t.Errorf("pipeline sum = %v, want %v", v, want)
	}
	if st := pool.AsyncStats(); st.Total.Released != 2 {
		t.Errorf("released = %d, want 2 (two dependent stages)", st.Total.Released)
	}
}

func TestSubmitPipelineInvalidStage(t *testing.T) {
	pool := testPool(t, Config{Workers: 2})
	ran := false
	js := pool.SubmitPipeline(
		Stage{N: 8}, // no body: invalid
		Stage{N: 8, Body: func(i int) { ran = true }},
	)
	if err := js[0].Wait(); err == nil {
		t.Error("invalid stage did not fail")
	}
	if err := js[1].Wait(); !errors.Is(err, ErrCanceled) {
		t.Errorf("stage after invalid stage: err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Error("stage after an invalid stage ran")
	}
}

func TestAfterCancelPropagatesThroughPublicAPI(t *testing.T) {
	pool := testPool(t, Config{Workers: 1})
	gate := make(chan struct{})
	occupy := pool.Submit(1, func(i int) { <-gate })
	defer func() {
		close(gate)
		occupy.Wait()
	}()
	up := pool.Submit(64, func(i int) {})
	down := pool.SubmitOpts(64, JobOptions{After: []*Job{up}}, func(i int) {
		t.Error("canceled dependent ran")
	})
	if !up.Cancel() {
		t.Fatal("Cancel on a queued upstream failed")
	}
	err := down.Wait()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("dependent err = %v, want ErrCanceled", err)
	}
	// The wrap contract: the dependent's error is not the bare sentinel but
	// a propagation error wrapping the upstream's cancellation.
	if err == ErrCanceled { //nolint:errorlint // deliberate identity check
		t.Error("dependent err is the bare ErrCanceled sentinel; want the upstream's cancellation wrapped")
	}
}

func TestPoolTraceThroughPublicAPI(t *testing.T) {
	pool := testPool(t, Config{Workers: 4, Trace: true})
	tr := pool.Tracer()
	if tr == nil {
		t.Fatal("Config.Trace set but Tracer() is nil")
	}
	sub := tr.Subscribe(1024, "", 0)
	defer sub.Close()

	js := pool.SubmitPipeline(
		Stage{N: 256, Opts: JobOptions{Tenant: "pipe", Label: "produce"}, Body: func(i int) {}},
		Stage{N: 256, Opts: JobOptions{Tenant: "pipe", Label: "consume"}, Body: func(i int) {}},
	)
	for _, j := range js {
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	jt := js[1].Trace()
	if jt == nil {
		t.Fatal("traced pool returned a nil Job.Trace")
	}
	if !jt.Finished() {
		t.Fatal("trace not finished after Wait")
	}
	if jt.Tenant != "pipe" || jt.Label != "consume" {
		t.Fatalf("trace tenant/label = %q/%q, want pipe/consume", jt.Tenant, jt.Label)
	}
	if tr.Trace(jt.ID) == nil {
		t.Fatal("finished trace not queryable from the pool tracer")
	}
	doc := jt.OTLP("loopsched")
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans[0].Spans) == 0 {
		t.Fatal("empty OTLP document for a finished trace")
	}
	// The dependent stage must have recorded its blocked -> released hold.
	var sawBlocked, sawReleased bool
	for _, ev := range jt.Events() {
		switch ev.Type {
		case "blocked":
			sawBlocked = true
		case "released":
			sawReleased = true
		}
	}
	if !sawBlocked || !sawReleased {
		t.Fatalf("dependent stage events missing blocked/released: blocked=%v released=%v", sawBlocked, sawReleased)
	}
	// The live feed delivered events for both stages.
	got := 0
	for {
		select {
		case <-sub.Events():
			got++
			continue
		default:
		}
		break
	}
	if got == 0 {
		t.Fatal("subscription delivered no events")
	}
}

func TestPoolUntracedHasNoTracer(t *testing.T) {
	pool := testPool(t, Config{Workers: 2})
	if pool.Tracer() != nil {
		t.Fatal("Tracer() non-nil without Config.Trace")
	}
	j := pool.Submit(32, func(i int) {})
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if j.Trace() != nil {
		t.Fatal("untraced pool produced a job trace")
	}
	if pool.failedJob(ErrClosed).Trace() != nil {
		t.Fatal("failed job has a trace")
	}
}
func TestJobReleaseRecyclesHandle(t *testing.T) {
	pool := testPool(t, Config{Workers: 2})
	j := pool.SubmitFor(64, func(w, lo, hi int) {})
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	j.Release()
	// The released handle must come back for the next submission, rebound to
	// a fresh job that behaves normally.
	j2 := pool.SubmitFor(64, func(w, lo, hi int) {})
	if j2 != j {
		t.Log("handle not recycled (another goroutine may have taken it); still must work")
	}
	if err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	j2.Release()
	// Release on failed and nil handles is a no-op.
	pool.failedJob(ErrClosed).Release()
	var nilJob *Job
	nilJob.Release()
}

// TestPublicSubmitAllocs pins the public layer's share of the tentpole: a
// steady-state SubmitFor/Wait/Release cycle through Pool, the handle
// freelist, the Sharded router and the runtime performs zero heap
// allocations. SubmitFor passes the body through without wrapping, so the
// cycle is closure-free; Submit/ForEach shapes wrap the body and pay one
// closure allocation by design.
func TestPublicSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	pool := testPool(t, Config{Workers: 2})
	body := func(w, lo, hi int) {}
	for i := 0; i < 128; i++ {
		j := pool.SubmitFor(64, body)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	}
	avg := testing.AllocsPerRun(500, func() {
		j := pool.SubmitFor(64, body)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	})
	if avg != 0 {
		t.Errorf("SubmitFor/Wait/Release cycle: %v allocs/op, want 0", avg)
	}
}

// TestAsyncSuspendResume drives the pause API through the public wrapper: a
// commutative reduction is suspended mid-flight, holds no result while
// parked, and after Resume completes with the exact uninterrupted sum.
func TestAsyncSuspendResume(t *testing.T) {
	pool := testPool(t, Config{Workers: 2})
	const n = 200_000
	// Chunks wait until the suspension is posted: otherwise a descheduled
	// test goroutine could post it after the last chunk was claimed, and the
	// job would complete instead of parking.
	posted := make(chan struct{})
	j := pool.SubmitReduceOpts(n, JobOptions{Commutative: true, Grain: 256}, 0,
		func(a, b float64) float64 { return a + b },
		func(_, low, high int, acc float64) float64 {
			<-posted
			for i := low; i < high; i++ {
				acc += float64(i)
			}
			return acc
		})
	if !j.Suspend() {
		t.Fatal("Suspend refused on an in-flight job")
	}
	close(posted)
	if !j.Suspend() {
		t.Error("Suspend is not idempotent on a parked job")
	}
	// Resume may race the park of a running job; retry until it lands.
	deadline := time.Now().Add(10 * time.Second)
	for !j.Resume() {
		if time.Now().After(deadline) {
			t.Fatal("Resume never landed")
		}
		runtime.Gosched()
	}
	v, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n) * float64(n-1) / 2; v != want {
		t.Fatalf("suspended+resumed reduction = %v, want %v", v, want)
	}

	// Terminal and failed-submission handles refuse the pause API.
	if j.Suspend() || j.Resume() {
		t.Error("Suspend/Resume accepted on a completed job")
	}
	bad := &Job{}
	if bad.Suspend() || bad.Resume() {
		t.Error("Suspend/Resume accepted on a failed-submission handle")
	}
}
