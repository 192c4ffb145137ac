package jobs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/trace"
)

// waitState polls until the job reaches the state or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v, want %v", j.State(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitFor polls a condition with a 5s deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestElasticGrowthJoinsRunningJob(t *testing.T) {
	// A job admitted while most of the team is busy must grow onto workers
	// that free up afterwards, instead of finishing on its lone admission
	// sub-team.
	s := testScheduler(t, 4, Config{})
	release := make(chan struct{})
	var blockers []*Job
	for i := 0; i < 3; i++ {
		b, err := s.Submit(Request{N: 1, MaxWorkers: 1, Body: func(w, lo, hi int) { <-release }})
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, b)
		waitState(t, b, Running)
	}
	// One worker is idle: the elastic job is admitted on it alone.
	elastic, err := s.Submit(Request{N: 400, Grain: 1, Body: func(w, lo, hi int) {
		time.Sleep(time.Millisecond)
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, elastic, Running)
	close(release)
	for _, b := range blockers {
		if _, err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "sub-team growth", func() bool { return s.Stats().Grown > 0 })
	if _, err := elastic.Wait(); err != nil {
		t.Fatal(err)
	}
	if k := elastic.Workers(); k < 2 {
		t.Errorf("elastic job peaked at %d workers, want >= 2 after growth", k)
	}
}

func TestElasticPeelServesWaitingTenant(t *testing.T) {
	// A worker of a running job must peel off when another tenant waits in
	// the admission queue, so the tenant is served long before the big job
	// completes — the convoy fix.
	s := testScheduler(t, 2, Config{})
	big, err := s.Submit(Request{N: 300, Grain: 1, Body: func(w, lo, hi int) {
		time.Sleep(time.Millisecond)
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, big, Running)
	small, err := s.Submit(Request{N: 8, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := big.State(); st != Running {
		t.Errorf("big job already %v when the burst tenant completed (convoy not fixed?)", st)
	}
	if st := s.Stats(); st.Peeled < 1 {
		t.Errorf("peeled = %d, want >= 1", st.Peeled)
	}
	if _, err := big.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCommutativeElasticReduceExact(t *testing.T) {
	// Commutative reductions take the elastic path (arrival-order folding);
	// integer-valued sums must still be bit-exact whatever the fold order.
	s := testScheduler(t, 4, Config{})
	const jobs = 16
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 2000 + 13*g
			j, err := s.Submit(Request{
				N:           n,
				Grain:       32,
				Commutative: true,
				Combine:     func(a, b float64) float64 { return a + b },
				RBody: func(w, lo, hi int, acc float64) float64 {
					for i := lo; i < hi; i++ {
						acc += float64(i)
					}
					return acc
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			v, err := j.Wait()
			if err != nil {
				t.Error(err)
				return
			}
			if want := float64(n) * float64(n-1) / 2; v != want {
				t.Errorf("job %d: sum = %v, want %v", g, v, want)
			}
		}(g)
	}
	wg.Wait()
}

func TestGrainControlsChunkSize(t *testing.T) {
	s := testScheduler(t, 4, Config{})
	const n, grain = 1000, 64
	var mu sync.Mutex
	type chunk struct{ lo, hi int }
	var chunks []chunk
	j, err := s.Submit(Request{N: n, Grain: grain, Body: func(w, lo, hi int) {
		mu.Lock()
		chunks = append(chunks, chunk{lo, hi})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, c := range chunks {
		if c.lo%grain != 0 {
			t.Errorf("chunk [%d,%d) not aligned to grain %d", c.lo, c.hi, grain)
		}
		if c.hi-c.lo > grain {
			t.Errorf("chunk [%d,%d) exceeds grain %d", c.lo, c.hi, grain)
		}
	}
}

func TestCancelAdjustsQueueDepth(t *testing.T) {
	// Canceled-while-queued jobs must leave the queue and the depth other
	// tenants' fair share is computed from immediately — not only when the
	// dispatcher eventually pops them.
	s := testScheduler(t, 1, Config{})
	release := make(chan struct{})
	blocker, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Running)
	var victims []*Job
	for i := 0; i < 5; i++ {
		v, err := s.Submit(Request{N: 100, Body: func(w, lo, hi int) {
			t.Error("canceled job body ran")
		}})
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, v)
	}
	if st := s.Stats(); st.QueueDepth != 5 {
		t.Fatalf("queue depth = %d before cancels, want 5", st.QueueDepth)
	}
	for _, v := range victims {
		if !v.Cancel() {
			t.Fatal("Cancel returned false for a queued job")
		}
	}
	// The depth drops synchronously with Cancel, and the entries leave the
	// queue with it.
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after cancels, want 0", st.QueueDepth)
	}
	if q := s.fq.len(); q != 0 {
		t.Errorf("%d canceled entries still queued, want 0", q)
	}
	// So every canceled job can be Released, and reused by the next
	// submissions, while the blocker still runs.
	released := make(map[*Job]bool)
	for _, v := range victims {
		if _, err := v.Wait(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled job's Wait = %v, want ErrCanceled", err)
		}
		v.Release()
		released[v] = true
	}
	var reused []*Job
	for range victims {
		j, err := s.Submit(Request{N: 10, Body: func(w, lo, hi int) {}})
		if err != nil {
			t.Fatal(err)
		}
		if !released[j] {
			t.Error("submission did not reuse a released canceled job")
		}
		reused = append(reused, j)
	}
	if st := blocker.State(); st != Running {
		t.Fatalf("blocker in state %v before its release, want Running", st)
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, j := range reused {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// No double decrement: after another job flows through, the depth is
	// exactly zero again.
	j, err := s.Submit(Request{N: 10, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queue drain", func() bool {
		st := s.Stats()
		return st.QueueDepth == 0 && st.Running == 0
	})
	if st := s.Stats(); st.Canceled != 5 {
		t.Errorf("canceled = %d, want 5", st.Canceled)
	}
}

func TestQueueDepthBackpressure(t *testing.T) {
	// The dispatcher must not drain the bounded queue into an unbounded
	// buffer: with QueueDepth=2 and the lone worker blocked, at most 3 jobs
	// (2 in the channel + 1 popped) can be accepted before Submit blocks.
	s := testScheduler(t, 1, Config{QueueDepth: 2})
	release := make(chan struct{})
	blocker, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Running)
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if _, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}}); err != nil {
				t.Error(err)
				return
			}
			accepted.Add(1)
		}
	}()
	// Give the submitter ample time to run into the backpressure wall.
	time.Sleep(50 * time.Millisecond)
	if got := accepted.Load(); got > 3 {
		t.Errorf("%d submits accepted while the team was blocked, want <= 3 (QueueDepth=2 + 1 popped)", got)
	}
	close(release)
	<-done
	waitFor(t, "queue drain", func() bool {
		st := s.Stats()
		return st.QueueDepth == 0 && st.Running == 0
	})
}

func TestRaceSubmitCancelStatsDuringSkewedJob(t *testing.T) {
	// Run under -race: concurrent Submit/Cancel/Stats while a long skewed
	// elastic job churns the team. Every job must either complete with the
	// right answer or report ErrCanceled; the counters must balance.
	s := testScheduler(t, 4, Config{})
	skew, err := s.Submit(Request{N: 256, Grain: 1, Body: func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Skewed body: later iterations cost more.
			time.Sleep(time.Duration(1+i/64) * 50 * time.Microsecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, skew, Running)

	const submitters = 6
	var completed, canceled atomic.Int64
	var wg, pollers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Stats()
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := 500 + g
				j, err := s.Submit(Request{
					N:           n,
					Commutative: true,
					Combine:     func(a, b float64) float64 { return a + b },
					RBody: func(w, lo, hi int, acc float64) float64 {
						return acc + float64(hi-lo)
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == g%3 {
					j.Cancel() // races admission on purpose
				}
				v, err := j.Wait()
				switch {
				case err == nil:
					if v != float64(n) {
						t.Errorf("job result %v, want %v", v, float64(n))
					}
					completed.Add(1)
				case errors.Is(err, ErrCanceled):
					canceled.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	if _, err := skew.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queue drain", func() bool {
		st := s.Stats()
		return st.QueueDepth == 0 && st.Running == 0
	})
	st := s.Stats()
	if got, want := completed.Load()+canceled.Load(), int64(submitters*40); got != want {
		t.Errorf("accounted %d jobs, want %d", got, want)
	}
	if st.Canceled != canceled.Load() {
		t.Errorf("stats canceled = %d, observed %d", st.Canceled, canceled.Load())
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after drain", st.QueueDepth)
	}
}

func TestPeelNeverTouchesRecycledJob(t *testing.T) {
	// Regression: a peeling participant used to return its sub id and read
	// the trace handle after the decrement that let another participant
	// complete the job. The owner's Release could recycle the job in that
	// window, so the stale sub id could land on the next generation's slot
	// stack (a duplicate worker id) and the peel event read the handle the
	// recycler was resetting (a -race report). Two submitters keep one job
	// queued while the other's four participants finish their one-chunk
	// shares together, so peels and the completing leave coincide; every
	// job is released the moment it finishes, and every body checks that no
	// sub id is in use twice at once.
	s := testScheduler(t, 4, Config{Tracer: trace.NewTracer(16)})
	const submitters, rounds, n = 2, 2000, 4
	forcePeel(t, s, n)
	var dup atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && !dup.Load(); r++ {
				var inUse [64]atomic.Int32
				j, err := s.Submit(Request{N: n, Grain: 1, Body: func(w, lo, hi int) {
					if inUse[w].Add(1) != 1 {
						dup.Store(true)
					}
					for end := time.Now().Add(2 * time.Microsecond); time.Now().Before(end); {
					}
					inUse[w].Add(-1)
				}})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
				j.Release()
			}
		}()
	}
	wg.Wait()
	if dup.Load() {
		t.Fatal("two participants of one job ran under the same sub id")
	}
	if s.Stats().Peeled == 0 {
		t.Error("no participant peeled; the test exercised nothing")
	}
}

// forcePeel makes at least one participant of s peel, whatever the timing:
// a job of workers one-iteration chunks holds every worker of s inside its
// body until a second job is queued behind it, so the first participant to
// finish its chunk finds a tenant waiting while the others still hold the
// job, and peels.
func forcePeel(t *testing.T, s *Scheduler, workers int) {
	t.Helper()
	var entered atomic.Int32
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	held, err := s.Submit(Request{N: workers, Grain: 1, Body: func(w, lo, hi int) {
		entered.Add(1)
		<-hold
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every worker inside the holding job", func() bool { return entered.Load() == int32(workers) })
	queued, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != Pending {
		t.Fatalf("job behind a full team in state %v, want Pending", st)
	}
	release()
	for _, j := range []*Job{held, queued} {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	}
}
