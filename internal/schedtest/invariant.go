// invariant.go is the deterministic invariant harness for the multi-tenant
// jobs runtimes: it drives a jobs scheduler (single or sharded) with a
// seeded pseudo-random operation stream — submissions of plain, commutative-
// reducing and ordered-reducing loops of random sizes, grains, worker caps,
// tenants, priorities and deadlines, interleaved with cancels — and asserts
// the runtime's structural invariants after every run:
//
//   - every loop index of every completed job executed exactly once
//     (elastic growth, peeling, cross-shard stealing and lending must never
//     duplicate or drop a chunk);
//   - every join wave completes: Wait returns for every submitted job
//     within a deadline, with either a verified result or ErrCanceled;
//   - canceled jobs never ran any iteration;
//   - a dependent job (submitted with Request.After) never starts before
//     its upstream's join wave completes, and a canceled upstream cancels
//     its dependents (which never run) without leaking blocked jobs;
//   - no worker is lost: after the stream drains, the pool reports zero
//     busy workers, zero queue depth, zero blocked jobs and zero running
//     jobs, and still completes a fresh full-width job.
//
// The op stream is a pure function of InvariantOptions.Seed, so a failure
// reproduces by re-running with the logged seed. Run it under -race: the
// marks arrays double as data-race probes for overlapping chunk execution.
package schedtest

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/loadgen"
)

// JobRunner is the surface the invariant harness drives: jobs.Scheduler and
// jobs.Sharded both implement it.
type JobRunner interface {
	Submit(jobs.Request) (*jobs.Job, error)
}

// BatchRunner is the batched-admission surface; runners that implement it
// (both jobs.Scheduler and jobs.Sharded do) get SubmitBatch ops mixed into
// the invariant stream, racing batches against single submissions, cancels
// and handle recycling.
type BatchRunner interface {
	SubmitBatch(reqs []jobs.Request, out []*jobs.Job) error
}

// InvariantOptions parameterizes the op stream.
type InvariantOptions struct {
	// Seed seeds the op stream; the same seed replays the same stream
	// (subject to runtime scheduling, which the invariants are robust to).
	Seed int64
	// Tenants is the number of concurrent submitter goroutines; <= 0
	// selects 6.
	Tenants int
	// OpsPerTenant is the number of jobs each tenant submits; <= 0 selects
	// 40.
	OpsPerTenant int
	// MaxN bounds the per-job iteration count; <= 0 selects 2048.
	MaxN int
	// CancelPercent is the percentage of jobs each tenant cancels right
	// after submission (racing admission on purpose); < 0 selects 0,
	// default 20.
	CancelPercent int
	// Deadline bounds every Wait and the final drain; <= 0 selects 30s.
	Deadline time.Duration
}

func (o *InvariantOptions) normalize() {
	if o.Tenants <= 0 {
		o.Tenants = 6
	}
	if o.OpsPerTenant <= 0 {
		o.OpsPerTenant = 40
	}
	if o.MaxN <= 0 {
		o.MaxN = 2048
	}
	if o.CancelPercent == 0 {
		o.CancelPercent = 20
	}
	if o.CancelPercent < 0 {
		o.CancelPercent = 0
	}
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
}

// DrainStats is the post-run occupancy snapshot the harness polls for the
// no-lost-worker invariant. Blocked is the runtime's blocked-depth gauge: a
// canceled upstream must never leave a dependent parked forever.
type DrainStats struct {
	BusyWorkers int
	QueueDepth  int
	Running     int
	Blocked     int
}

// RunJobInvariants drives the runner with the seeded op stream and asserts
// the invariants. drained must return the runner's current occupancy (for a
// sharded pool, the merged totals); totalWorkers is the full worker count a
// final post-drain job must be able to use.
func RunJobInvariants(t *testing.T, runner JobRunner, opt InvariantOptions, totalWorkers int, drained func() DrainStats) {
	t.Helper()
	opt.normalize()
	t.Logf("invariant stream: seed=%d tenants=%d ops=%d", opt.Seed, opt.Tenants, opt.OpsPerTenant)

	var wg sync.WaitGroup
	for tnt := 0; tnt < opt.Tenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			// Each tenant derives its own deterministic stream from the seed.
			rng := rand.New(rand.NewSource(opt.Seed + int64(tnt)*1_000_003))
			for op := 0; op < opt.OpsPerTenant; op++ {
				runOneOp(t, runner, rng, opt, tnt, op)
			}
		}(tnt)
	}
	wg.Wait()

	// No worker lost, part 1: the pool must drain to zero occupancy — the
	// blocked gauge included: every dependent was either released by its
	// upstream's join wave or canceled by propagation, never parked forever.
	// The counters are decremented just after job completion is published,
	// so poll briefly instead of asserting instantly.
	deadline := time.Now().Add(opt.Deadline)
	for {
		d := drained()
		if d.BusyWorkers == 0 && d.QueueDepth == 0 && d.Running == 0 && d.Blocked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: %+v (workers lost, job stuck, or blocked dependent leaked)", d)
		}
		time.Sleep(200 * time.Microsecond)
	}

	// No worker lost, part 2: a fresh job spanning the whole pool still
	// completes — every worker is reachable after the churn.
	n := totalWorkers * 64
	var covered atomic.Int64
	j, err := runner.Submit(jobs.Request{N: n, Grain: 1, Body: func(w, lo, hi int) {
		covered.Add(int64(hi - lo))
	}})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	if _, err := waitDeadline(j, opt.Deadline); err != nil {
		t.Fatalf("post-drain job: %v", err)
	}
	if covered.Load() != int64(n) {
		t.Fatalf("post-drain job covered %d of %d iterations", covered.Load(), n)
	}
}

// policyFields draws the scheduling-policy dimensions of one op from the
// shared loadgen traffic model (tenants deliberately shared across submitter
// goroutines so their streams interleave inside one account). The tenant and
// priority are pure functions of the seed; the deadline must be an absolute
// time, so its presence and tightness are seeded but its anchor is not — the
// invariants do not depend on it (a missed deadline only increments
// counters; ordering differences are what the stream explores).
func policyFields(rng *rand.Rand, req *jobs.Request) {
	d := loadgen.DefaultPolicy().Draw(rng)
	req.Tenant = d.Tenant
	req.Priority = d.Priority
	if d.DeadlineMs > 0 {
		req.Deadline = time.Now().Add(time.Duration(d.DeadlineMs) * time.Millisecond)
	}
}

// runOneOp submits (and possibly cancels) one pseudo-random job and checks
// its outcome.
func runOneOp(t *testing.T, runner JobRunner, rng *rand.Rand, opt InvariantOptions, tnt, op int) {
	t.Helper()
	n := rng.Intn(opt.MaxN + 1) // 0 is a legal degenerate loop
	if rng.Intn(4) == 0 {
		runDepOp(t, runner, rng, opt, tnt, op, n)
		return
	}
	// The draw happens for every runner so the stream stays a pure function
	// of the seed; only runners with batched admission act on it.
	if rng.Intn(5) == 0 {
		if br, ok := runner.(BatchRunner); ok {
			runBatchOp(t, br, rng, opt, tnt, op)
			return
		}
	}
	kind := rng.Intn(3)
	grain := 0
	if rng.Intn(2) == 0 {
		grain = 1 + rng.Intn(64)
	}
	maxWorkers := 0
	if rng.Intn(3) == 0 {
		maxWorkers = 1 + rng.Intn(4)
	}
	cancel := rng.Intn(100) < opt.CancelPercent
	// Suspend/resume churn rides the same stream: a checkpointed pause must
	// be invisible to every invariant below (exactly-once marks, closed-form
	// sums, ordered folds). Cancels race admission already; suspending a
	// canceled handle would just be a refusal, so churn the others.
	suspend := !cancel && rng.Intn(4) == 0

	var marks []int32 // exactly-once probe for plain jobs
	var req jobs.Request
	switch kind {
	case 0: // plain loop: every index marked exactly once
		marks = make([]int32, n)
		req = jobs.Request{N: n, Grain: grain, MaxWorkers: maxWorkers, Body: func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		}}
	case 1: // commutative reduction: closed-form sum, exact in float64
		req = jobs.Request{
			N: n, Grain: grain, MaxWorkers: maxWorkers, Commutative: true,
			Combine: func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += float64(i)
				}
				return acc
			},
		}
	default: // ordered reduction: exact, and wrong under any reordering
		req = jobs.Request{
			N: n, Grain: grain, MaxWorkers: maxWorkers,
			Identity: AffineIdentity, Combine: AffineCombine, RBody: AffineBody,
		}
	}

	policyFields(rng, &req)
	j, err := runner.Submit(req)
	if err != nil {
		t.Errorf("tenant %d op %d (seed %d): submit: %v", tnt, op, opt.Seed, err)
		return
	}
	if cancel {
		j.Cancel() // races admission and stealing on purpose; may fail
	}
	if suspend {
		suspendResumeChurn(j, opt.Deadline)
	}
	v, err := waitDeadline(j, opt.Deadline)
	if errors.Is(err, jobs.ErrCanceled) {
		if kind == 0 {
			for i, m := range marks {
				if m != 0 {
					t.Errorf("tenant %d op %d (seed %d): canceled job ran iteration %d", tnt, op, opt.Seed, i)
					return
				}
			}
		}
		return
	}
	if err != nil {
		t.Errorf("tenant %d op %d (seed %d): wait: %v", tnt, op, opt.Seed, err)
		return
	}
	switch kind {
	case 0:
		for i, m := range marks {
			if m != 1 {
				t.Errorf("tenant %d op %d (seed %d): iteration %d of %d executed %d times, want 1",
					tnt, op, opt.Seed, i, n, m)
				return
			}
		}
	case 1:
		if want := float64(n) * float64(n-1) / 2; v != want {
			t.Errorf("tenant %d op %d (seed %d): sum over %d = %v, want %v", tnt, op, opt.Seed, n, v, want)
		}
	default:
		if want := AffineBody(0, 0, n, AffineIdentity); v != want {
			t.Errorf("tenant %d op %d (seed %d): ordered fold over %d = %v, want %v (join-wave order violated)",
				tnt, op, opt.Seed, n, v, want)
		}
	}
}

// runBatchOp admits several pseudo-random jobs through one SubmitBatch call
// and checks the same invariants the single-submit ops do: every index of
// every completed job marked exactly once, canceled jobs never run, and
// degenerate (N=0) members complete inline without disturbing their
// siblings. Released handles feed the runtime's freelist, so the stream also
// races recycling against late Waits.
func runBatchOp(t *testing.T, runner BatchRunner, rng *rand.Rand, opt InvariantOptions, tnt, op int) {
	t.Helper()
	k := 2 + rng.Intn(7)
	reqs := make([]jobs.Request, k)
	marks := make([][]int32, k)
	for i := range reqs {
		n := rng.Intn(opt.MaxN + 1)
		if rng.Intn(8) == 0 {
			n = 0 // degenerate member: completes inline during admission
		}
		m := make([]int32, n)
		marks[i] = m
		reqs[i] = jobs.Request{N: n, Body: func(w, lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				atomic.AddInt32(&m[idx], 1)
			}
		}}
		if rng.Intn(2) == 0 {
			reqs[i].Grain = 1 + rng.Intn(64)
		}
		if rng.Intn(3) == 0 {
			reqs[i].MaxWorkers = 1 + rng.Intn(4)
		}
		policyFields(rng, &reqs[i])
	}
	cancelIdx := -1
	if rng.Intn(100) < opt.CancelPercent {
		cancelIdx = rng.Intn(k)
	}
	release := rng.Intn(2) == 0

	out := make([]*jobs.Job, k)
	if err := runner.SubmitBatch(reqs, out); err != nil {
		t.Errorf("tenant %d op %d (seed %d): batch submit: %v", tnt, op, opt.Seed, err)
		return
	}
	if cancelIdx >= 0 {
		out[cancelIdx].Cancel() // races admission and stealing on purpose
	}
	for i, j := range out {
		if j == nil {
			t.Errorf("tenant %d op %d (seed %d): batch member %d has no handle", tnt, op, opt.Seed, i)
			continue
		}
		_, err := waitDeadline(j, opt.Deadline)
		switch {
		case errors.Is(err, jobs.ErrCanceled):
			for idx, m := range marks[i] {
				if m != 0 {
					t.Errorf("tenant %d op %d (seed %d): canceled batch member %d ran iteration %d",
						tnt, op, opt.Seed, i, idx)
					break
				}
			}
		case err != nil:
			t.Errorf("tenant %d op %d (seed %d): batch member %d wait: %v", tnt, op, opt.Seed, i, err)
			continue // not terminal: do not release
		default:
			for idx, m := range marks[i] {
				if m != 1 {
					t.Errorf("tenant %d op %d (seed %d): batch member %d iteration %d executed %d times, want 1",
						tnt, op, opt.Seed, i, idx, m)
					break
				}
			}
		}
		if release {
			j.Release()
		}
	}
}

// runDepOp submits a small dependency graph — one or two upstream loops and
// a dependent that fans them in — and checks the DAG invariants: the
// dependent observes every upstream iteration complete before its own body
// starts (release strictly follows the upstream join wave), and a canceled
// upstream cancels the dependent, which then never runs an iteration.
func runDepOp(t *testing.T, runner JobRunner, rng *rand.Rand, opt InvariantOptions, tnt, op, n int) {
	t.Helper()
	if n == 0 {
		n = 1
	}
	upN := 1 + rng.Intn(opt.MaxN/4+1)
	fanIn := 1 + rng.Intn(2)
	cancelUp := rng.Intn(100) < opt.CancelPercent
	grain := 0
	if rng.Intn(2) == 0 {
		grain = 1 + rng.Intn(64)
	}

	covered := make([]*atomic.Int64, fanIn)
	ups := make([]*jobs.Job, fanIn)
	for i := range ups {
		covered[i] = new(atomic.Int64)
		c := covered[i]
		u, err := runner.Submit(jobs.Request{N: upN, Grain: grain, Body: func(w, lo, hi int) {
			c.Add(int64(hi - lo))
		}})
		if err != nil {
			t.Errorf("tenant %d op %d (seed %d): upstream submit: %v", tnt, op, opt.Seed, err)
			return
		}
		ups[i] = u
	}

	var earlyStart atomic.Bool // dependent ran before an upstream join completed
	var depRan atomic.Int64
	depReq := jobs.Request{N: n, Grain: grain, After: ups, Body: func(w, lo, hi int) {
		for _, c := range covered {
			if c.Load() != int64(upN) {
				earlyStart.Store(true)
			}
		}
		depRan.Add(int64(hi - lo))
	}}
	policyFields(rng, &depReq)
	dep, err := runner.Submit(depReq)
	if err != nil {
		t.Errorf("tenant %d op %d (seed %d): dependent submit: %v", tnt, op, opt.Seed, err)
		return
	}
	upCanceled := false
	if cancelUp {
		// Races admission on purpose; propagation is only required when the
		// cancel actually won.
		upCanceled = ups[rng.Intn(fanIn)].Cancel()
	} else if rng.Intn(3) == 0 {
		// Park an upstream under a live dependent: the dependent must stay
		// blocked through the pause and still observe the full upstream
		// coverage when the resumed join wave finally releases it.
		suspendResumeChurn(ups[rng.Intn(fanIn)], opt.Deadline)
	}

	_, depErr := waitDeadline(dep, opt.Deadline)
	switch {
	case upCanceled:
		if !errors.Is(depErr, jobs.ErrCanceled) {
			t.Errorf("tenant %d op %d (seed %d): dependent of canceled upstream: err = %v, want ErrCanceled",
				tnt, op, opt.Seed, depErr)
		}
		if depRan.Load() != 0 {
			t.Errorf("tenant %d op %d (seed %d): dependent of canceled upstream ran %d iterations",
				tnt, op, opt.Seed, depRan.Load())
		}
	case depErr != nil:
		t.Errorf("tenant %d op %d (seed %d): dependent wait: %v", tnt, op, opt.Seed, depErr)
	default:
		if earlyStart.Load() {
			t.Errorf("tenant %d op %d (seed %d): dependent started before its upstream's join completed",
				tnt, op, opt.Seed)
		}
		if depRan.Load() != int64(n) {
			t.Errorf("tenant %d op %d (seed %d): dependent covered %d of %d iterations",
				tnt, op, opt.Seed, depRan.Load(), n)
		}
	}
	// Upstreams always terminate either way; a lost release would show up
	// in the drain check too, but failing here names the op.
	for i, u := range ups {
		if _, err := waitDeadline(u, opt.Deadline); err != nil && !errors.Is(err, jobs.ErrCanceled) {
			t.Errorf("tenant %d op %d (seed %d): upstream %d: %v", tnt, op, opt.Seed, i, err)
		}
	}
}

// suspendResumeChurn drives one suspend/resume cycle against a live job. A
// refusal (terminal or blocked) is a legal outcome and ends the
// op; after an accepted suspend the job MUST be resumed — a parked job never
// completes on its own — so the helper polls until the resume lands or the
// job reaches a terminal state (a running job parks only at its next
// chunk-wave boundary, or completes first if no boundary remains).
func suspendResumeChurn(j *jobs.Job, deadline time.Duration) {
	if !j.Suspend() {
		return
	}
	limit := time.Now().Add(deadline)
	for !j.Resume() {
		select {
		case <-j.Done():
			return
		default:
		}
		if time.Now().After(limit) {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// waitDeadline is Job.Wait with a timeout, so a lost join wave fails the
// test instead of hanging it.
func waitDeadline(j *jobs.Job, d time.Duration) (float64, error) {
	select {
	case <-j.Done():
		return j.Wait()
	case <-time.After(d):
		return 0, errors.New("schedtest: job did not complete within the deadline (join wave lost?)")
	}
}

// The affine fold is an associative, non-commutative reduction on exact
// integers: iteration i contributes the map x → a_i·x + b_i mod
// affinePrime, and Combine composes maps (left operand applied first). A map
// packs into one float64 as a·affinePrime + b, exactly, since
// affinePrime² < 2^53. Any reordering of the partials changes the result,
// and no rounding hides it, so the result is checked exactly.
const affinePrime = 1_000_003

// AffineIdentity is the identity map x → x, packed.
const AffineIdentity = float64(affinePrime) // a = 1, b = 0

func affineUnpack(f float64) (a, b int64) {
	v := int64(f)
	return v / affinePrime, v % affinePrime
}

func affinePack(a, b int64) float64 { return float64(a*affinePrime + b) }

// affineThen composes (a, b) then (c, d): x → c·(a·x + b) + d.
func affineThen(a, b, c, d int64) (int64, int64) {
	return c * a % affinePrime, (c*b + d) % affinePrime
}

// AffineCombine composes two packed maps, applying x first.
func AffineCombine(x, y float64) float64 {
	a, b := affineUnpack(x)
	c, d := affineUnpack(y)
	return affinePack(affineThen(a, b, c, d))
}

// AffineBody is the reducing body: it composes acc with the maps of
// iterations lo..hi-1, in order. Over [0, n) from AffineIdentity it is also
// the sequential reference.
func AffineBody(_, lo, hi int, acc float64) float64 {
	a, b := affineUnpack(acc)
	for i := int64(lo); i < int64(hi); i++ {
		a, b = affineThen(a, b, 1+i*7919%(affinePrime-1), (i*104729+17)%affinePrime)
	}
	return affinePack(a, b)
}
