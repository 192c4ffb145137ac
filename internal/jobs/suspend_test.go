package jobs

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/trace"
)

// pollState spins until the job reaches want (or any terminal state) and
// returns the state it settled in.
func pollState(t *testing.T, j *Job, want State, timeout time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := j.State()
		if st == want || st == Done || st == Canceled {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v waiting for %v", st, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSuspendResumeRunningExactlyOnce suspends a running elastic reduction
// mid-space, resumes it, and verifies the checkpoint/resume contract: every
// iteration executes exactly once, the reduction matches the closed form, the
// handle (and its trace id) is continuous, and the suspend parked at an exact
// chunk boundary (cursor watermark == iterations executed so far).
func TestSuspendResumeRunningExactlyOnce(t *testing.T) {
	tr := trace.NewTracer(64)
	s := testScheduler(t, 4, Config{Tracer: tr})
	const n = 4096
	marks := make([]atomic.Int32, n)
	j, err := s.Submit(Request{
		N:           n,
		Grain:       16,
		Commutative: true,
		Identity:    0,
		Combine:     func(a, b float64) float64 { return a + b },
		RBody: func(w, lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
				acc += float64(i)
				time.Sleep(2 * time.Microsecond) // keep the job interruptible
			}
			return acc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := j.TraceID()
	// Let it make some progress, then ask for the quiesce.
	for j.State() == Pending {
		time.Sleep(100 * time.Microsecond)
	}
	if !j.Suspend() {
		t.Fatal("Suspend refused a pending/running job")
	}
	if st := pollState(t, j, Suspended, 10*time.Second); st == Canceled {
		t.Fatalf("job canceled instead of suspending")
	}
	if j.State() == Suspended {
		// Parked mid-space: the watermark must cover exactly the executed
		// prefix, nothing above it may have run.
		executed := 0
		for i := range marks {
			if marks[i].Load() > 0 {
				executed++
			}
		}
		if executed != j.resumeFrom {
			t.Fatalf("cursor watermark %d, but %d iterations executed", j.resumeFrom, executed)
		}
		for i := j.resumeFrom; i < n; i++ {
			if marks[i].Load() != 0 {
				t.Fatalf("iteration %d above watermark %d already ran", i, j.resumeFrom)
			}
		}
		st := s.Stats()
		if st.SuspendedDepth != 1 || st.SuspendedTotal < 1 {
			t.Fatalf("suspended depth/total = %d/%d, want 1/>=1", st.SuspendedDepth, st.SuspendedTotal)
		}
		if !j.Resume() {
			t.Fatal("Resume refused a suspended job")
		}
	}
	got, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * float64(n-1) / 2
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reduction = %v, want %v", got, want)
	}
	for i := range marks {
		if c := marks[i].Load(); c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
	if j.TraceID() != id {
		t.Fatalf("trace id changed across suspend/resume: %d -> %d", id, j.TraceID())
	}
}

// TestSuspendPendingJob suspends a job that is still queued: the suspension
// must take effect immediately (eager dequeue), remove the job from the
// fair-share depth, and resume must re-admit and complete it.
func TestSuspendPendingJob(t *testing.T) {
	s := testScheduler(t, 1, Config{})
	release := make(chan struct{})
	hog, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	var ran atomic.Int64
	j, err := s.Submit(Request{N: 8, Body: func(w, lo, hi int) { ran.Add(int64(hi - lo)) }})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Suspend() {
		t.Fatal("Suspend refused a pending job")
	}
	if st := j.State(); st != Suspended {
		t.Fatalf("state = %v, want suspended (pending suspension is immediate)", st)
	}
	if d := s.Stats().QueueDepth; d != 0 {
		t.Fatalf("queue depth = %d after suspension, want 0", d)
	}
	if !j.Suspend() {
		t.Fatal("re-suspending a suspended job must be accepted")
	}
	if !j.Resume() {
		t.Fatal("Resume refused a suspended job")
	}
	close(release)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("resumed job covered %d iterations, want 8", ran.Load())
	}
	if s.Stats().ResumedTotal != 1 {
		t.Fatalf("resumed_total = %d, want 1", s.Stats().ResumedTotal)
	}
}

// TestSuspendRefusals pins down the contract's false cases: blocked and
// terminal jobs refuse, Resume refuses anything not suspended.
func TestSuspendRefusals(t *testing.T) {
	s := testScheduler(t, 2, Config{})
	up, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Wait(); err != nil {
		t.Fatal(err)
	}
	if up.Suspend() {
		t.Fatal("Suspend accepted a done job")
	}
	if up.Resume() {
		t.Fatal("Resume accepted a done job")
	}
	gate, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}, After: []*Job{gate}})
	if err != nil {
		t.Fatal(err)
	}
	// The upstream may complete (and release dep) at any moment; Suspend must
	// refuse while dep is observably Blocked.
	if dep.State() == Blocked && dep.Suspend() && dep.State() == Blocked {
		t.Fatal("Suspend accepted a blocked job")
	}
	if _, err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseCancelsSuspendedKeepingCheckpoint shuts a scheduler down with a
// suspended durable job: the job cancels (suspend-to-disk), but its snapshot
// must survive in the store for the next process to recover.
func TestCloseCancelsSuspendedKeepingCheckpoint(t *testing.T) {
	store := NewMemStore()
	tr := trace.NewTracer(64)
	s := New(Config{Workers: 1, Tracer: tr, Checkpoints: store})
	release := make(chan struct{})
	hog, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j, err := s.Submit(Request{
		N:           64,
		Commutative: true,
		Combine:     func(a, b float64) float64 { return a + b },
		RBody:       func(w, lo, hi int, acc float64) float64 { return acc },
		Checkpoint:  &Checkpoint{Workload: "noop"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Suspend() {
		t.Fatal("Suspend refused a pending job")
	}
	close(release)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("suspended job after Close: err = %v, want ErrCanceled", err)
	}
	cps, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("store holds %d checkpoints after Close, want 1 (suspend-to-disk)", len(cps))
	}
	if cps[0].JobID != j.TraceID() {
		t.Fatalf("checkpoint job id %d, want %d", cps[0].JobID, j.TraceID())
	}
	if cps[0].Workload != "noop" || cps[0].N != 64 {
		t.Fatalf("checkpoint identity %q/%d not preserved", cps[0].Workload, cps[0].N)
	}
}

// TestCrossSchedulerRecovery is in-process crash recovery: suspend a durable
// job on one scheduler, tear the scheduler down, and re-submit the job from
// the shared checkpoint store on a second scheduler. Every iteration must
// execute exactly once across the two "processes", the reduction must match
// the uninterrupted run bit-for-bit, and the recovered job must keep its id.
func TestCrossSchedulerRecovery(t *testing.T) {
	store := NewMemStore()
	const n = 2048
	marks := make([]atomic.Int32, n)
	body := func(w, lo, hi int, acc float64) float64 {
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
			acc += math.Sqrt(float64(i))
			time.Sleep(time.Microsecond)
		}
		return acc
	}
	req := Request{
		N:           n,
		Grain:       16,
		Commutative: true,
		Combine:     func(a, b float64) float64 { return a + b },
		RBody:       body,
		Checkpoint:  &Checkpoint{Workload: "sqrtsum"},
	}

	s1 := New(Config{Workers: 2, Tracer: trace.NewTracer(64), Checkpoints: store})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	id := j1.TraceID()
	for j1.State() == Pending {
		time.Sleep(100 * time.Microsecond)
	}
	j1.Suspend()
	pollState(t, j1, Suspended, 10*time.Second)
	s1.Close() // cancels the suspended job, keeps the checkpoint

	cps, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if j1.State() == Done {
		// The suspension raced completion; nothing left to recover.
		if len(cps) != 0 {
			t.Fatalf("store holds %d checkpoints after completion, want 0", len(cps))
		}
		return
	}
	if len(cps) != 1 {
		t.Fatalf("store holds %d checkpoints, want 1", len(cps))
	}
	cp := cps[0]
	if cp.JobID != id {
		t.Fatalf("checkpoint id %d, want %d", cp.JobID, id)
	}

	// "Restart": a fresh scheduler and tracer recover the job from the store.
	s2 := New(Config{Workers: 2, Tracer: trace.NewTracer(64), Checkpoints: store})
	defer s2.Close()
	req2 := req
	req2.Checkpoint = &cp
	j2, err := s2.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j2.TraceID() != id {
		t.Fatalf("recovered job id %d, want original %d", j2.TraceID(), id)
	}
	got, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < cp.Cursor; i++ {
		want += math.Sqrt(float64(i))
	}
	tail := 0.0
	_ = tail
	for i := range marks {
		if c := marks[i].Load(); c != 1 {
			t.Fatalf("iteration %d executed %d times across restart (cursor %d)", i, c, cp.Cursor)
		}
	}
	// The recovered fold starts from the checkpointed Acc, so the result must
	// equal the same arrival-order fold the uninterrupted run produces up to
	// commutative reassociation; with exact-in-float64 increments unavailable,
	// compare against the serial sum within a tight tolerance.
	serial := 0.0
	for i := 0; i < n; i++ {
		serial += math.Sqrt(float64(i))
	}
	if diff := math.Abs(got - serial); diff > 1e-6*serial {
		t.Fatalf("recovered reduction %v, serial %v (diff %v)", got, serial, diff)
	}
	// Completion must have retired the snapshot.
	cps, _ = store.Load()
	if len(cps) != 0 {
		t.Fatalf("store holds %d checkpoints after recovered completion, want 0", len(cps))
	}
}

// TestSuspendedTimeNotCountedAsWait is the SLO-accounting regression test: a
// job parked in Suspended for a long pause must not charge that pause to the
// tenant's queue-wait sum (and so must not burn SLO latency budget).
func TestSuspendedTimeNotCountedAsWait(t *testing.T) {
	s := testScheduler(t, 1, Config{})
	release := make(chan struct{})
	hog, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j, err := s.Submit(Request{N: 4, Tenant: "paused", Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Suspend() {
		t.Fatal("Suspend refused a pending job")
	}
	const pause = 150 * time.Millisecond
	time.Sleep(pause)
	if !j.Resume() {
		t.Fatal("Resume refused")
	}
	close(release)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	ts, ok := s.Stats().Tenants["paused"]
	if !ok {
		t.Fatal("no tenant stats for paused")
	}
	if ts.WaitSumSeconds >= pause.Seconds() {
		t.Fatalf("wait sum %.3fs includes the %.3fs suspension", ts.WaitSumSeconds, pause.Seconds())
	}
}

// TestSuspendCancelWhileSuspended cancels a suspended job: Wait must report
// ErrCanceled, the suspended gauge must drop, and Resume must refuse.
func TestSuspendCancelWhileSuspended(t *testing.T) {
	s := testScheduler(t, 1, Config{})
	release := make(chan struct{})
	hog, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j, err := s.Submit(Request{N: 4, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Suspend() {
		t.Fatal("Suspend refused a pending job")
	}
	if !j.Cancel() {
		t.Fatal("Cancel refused a suspended job")
	}
	if j.Resume() {
		t.Fatal("Resume accepted a canceled job")
	}
	if _, err := j.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if d := s.Stats().SuspendedDepth; d != 0 {
		t.Fatalf("suspended depth = %d after cancel, want 0", d)
	}
	close(release)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendResumeHammer races Suspend against Resume from two goroutines,
// first while the job waits in the queue behind two hogs (the Pending path)
// and then while it runs (the quiesce-and-park path). Regression: both paths
// used to publish Suspended before registering the suspension, so a Resume
// could re-admit the job first; the late registration then left a stale
// suspended-set entry behind and recorded the suspended event after the
// resumed one. Every iteration must still run exactly once.
func TestSuspendResumeHammer(t *testing.T) {
	s := testScheduler(t, 2, Config{Tracer: trace.NewTracer(64)})
	const jobs, n = 8, 256
	for i := 0; i < jobs; i++ {
		release := make(chan struct{})
		for h := 0; h < 2; h++ {
			hog, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, hog, Running)
		}
		var ran atomic.Int64
		j, err := s.Submit(Request{N: n, Grain: 4, Body: func(w, lo, hi int) {
			ran.Add(int64(hi - lo))
			time.Sleep(5 * time.Microsecond)
		}})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, op := range []func() bool{j.Suspend, j.Resume} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						op()
					}
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		close(release)
		time.Sleep(2 * time.Millisecond)
		close(stop)
		wg.Wait()
		waitFor(t, "the hammered job to finish", func() bool {
			j.Resume()
			return j.State() == Done
		})
		if got := ran.Load(); got != n {
			t.Fatalf("job %d covered %d iterations, want %d", i, got, n)
		}
		suspended := false
		for _, ev := range j.Trace().Events() {
			switch ev.Type {
			case "suspended":
				suspended = true
			case "resumed":
				if !suspended {
					t.Fatalf("job %d: resumed (seq %d) without a preceding suspended", i, ev.Seq)
				}
				suspended = false
			}
		}
	}
	st := s.Stats()
	if st.SuspendedDepth != 0 || st.SuspendedTotal != st.ResumedTotal {
		t.Fatalf("suspended depth %d, suspended/resumed totals %d/%d; want 0 and equal",
			st.SuspendedDepth, st.SuspendedTotal, st.ResumedTotal)
	}
	s.suspendMu.Lock()
	stale := len(s.suspendSet)
	s.suspendMu.Unlock()
	if stale != 0 {
		t.Fatalf("%d stale suspended-set entries for finished jobs", stale)
	}
}
