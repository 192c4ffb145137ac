// overload.go extends the invariant harness with admission-control streams:
// seeded submissions racing a deliberately tiny admission queue with bounded
// waits (MaxWait), fail-fast submissions (NoWait), hopeless deadlines (for
// feasibility shedding) and an abusive tenant driving its circuit breaker
// open. The structural invariants:
//
//   - a shed submission never runs: no iteration of a rejected job's body
//     may execute, immediately or later;
//   - every rejection is typed: it matches exactly one of the overload
//     sentinels and carries a positive suggested-retry delay;
//   - shed accounting balances: the pool's ShedTotal equals the rejections
//     the stream observed, and decomposes into the infeasible + backlogged
//     counters plus breaker sheds — nothing lost, nothing double-counted;
//   - no admission slot leaks: after the stream drains, exactly QueueDepth
//     fail-fast submissions fit behind a fully parked pool, and the next one
//     is rejected — rejected submissions returned their slots, admitted ones
//     consumed and released them;
//   - breakers recover: an abusive tenant's breaker, driven open by deadline
//     misses under queue pressure, re-closes after the abuse stops and a
//     half-open probe succeeds.
package schedtest

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/jobs"
)

// OverloadInvariantOptions parameterizes the admission-control stream. The
// runner must be configured with QueueDepth and Workers matching the options,
// a bounded MaxWait, ShedInfeasible, and — when breakerState is supplied to
// RunOverloadInvariants — breakers armed with a short cooldown and an SLO
// target loose enough that a run of consecutive misses opens them (e.g.
// SLOTarget 0.5, BreakerBurnRate 1).
type OverloadInvariantOptions struct {
	// Seed seeds the op stream; the same seed replays the same stream.
	Seed int64
	// Submitters is the number of concurrent submitter goroutines; <= 0
	// selects 4.
	Submitters int
	// OpsPerSubmitter is the number of jobs each submitter offers; <= 0
	// selects 60.
	OpsPerSubmitter int
	// MaxN bounds the per-job iteration count; <= 0 selects 1024.
	MaxN int
	// QueueDepth must equal the runner's configured per-scheduler queue depth
	// times its scheduler count: the slot-leak probe admits exactly this many
	// fail-fast jobs behind a parked pool.
	QueueDepth int
	// Workers is the runner's total worker count (for parking the pool).
	Workers int
	// Deadline bounds every wait and poll; <= 0 selects 30s.
	Deadline time.Duration
}

func (o *OverloadInvariantOptions) normalize() {
	if o.Submitters <= 0 {
		o.Submitters = 4
	}
	if o.OpsPerSubmitter <= 0 {
		o.OpsPerSubmitter = 60
	}
	if o.MaxN <= 0 {
		o.MaxN = 1024
	}
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
}

// ShedTotals is the pool-wide admission-rejection snapshot the harness
// reconciles against the rejections it observed: for a Scheduler the
// ShedTotal/InfeasibleTotal/BackloggedTotal stats, for a Sharded pool the
// merged totals.
type ShedTotals struct {
	Shed, Infeasible, Backlogged int64
}

// RunOverloadInvariants drives the runner with the admission-control stream
// and asserts the shed invariants. shed must return the pool's current
// rejection counters; breakerState (optional — pass nil for runners without
// breakers armed) must return the named tenant's breaker state string, and
// enables the breaker-recovery phase.
func RunOverloadInvariants(t *testing.T, runner JobRunner, opt OverloadInvariantOptions,
	drained func() DrainStats, shed func() ShedTotals, breakerState func(tenant string) string) {
	t.Helper()
	opt.normalize()
	if opt.QueueDepth <= 0 || opt.Workers <= 0 {
		t.Fatal("OverloadInvariantOptions.QueueDepth and Workers must match the runner's configuration")
	}
	t.Logf("overload stream: seed=%d submitters=%d ops=%d", opt.Seed, opt.Submitters, opt.OpsPerSubmitter)

	// Phase A: the mixed stream. Rejections are part of normal operation
	// here; the harness keeps every shed job's marks array so late execution
	// of a rejected body cannot hide.
	var (
		mu        sync.Mutex
		shedMarks [][]int32
		observed  int64
	)
	var wg sync.WaitGroup
	for sub := 0; sub < opt.Submitters; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed + int64(sub)*1_000_003))
			for op := 0; op < opt.OpsPerSubmitter; op++ {
				n := 1 + rng.Intn(opt.MaxN)
				marks := make([]int32, n)
				req := jobs.Request{
					N:      n,
					Tenant: [...]string{"ovl-a", "ovl-b"}[rng.Intn(2)],
					NoWait: rng.Intn(3) == 0,
					Body: func(w, lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&marks[i], 1)
						}
					},
				}
				switch rng.Intn(4) {
				case 0:
					// Hopeless: feeds the feasibility check once the
					// service-time EWMA is warm.
					req.Deadline = time.Now().Add(time.Microsecond)
				case 1:
					req.Deadline = time.Now().Add(time.Duration(5+rng.Intn(50)) * time.Millisecond)
				}
				j, err := runner.Submit(req)
				if err != nil {
					if !errors.Is(err, jobs.ErrInfeasible) && !errors.Is(err, jobs.ErrBacklogged) && !errors.Is(err, jobs.ErrBreakerOpen) {
						t.Errorf("submitter %d op %d (seed %d): untyped rejection: %v", sub, op, opt.Seed, err)
						continue
					}
					if d, ok := jobs.SuggestedRetry(err); !ok || d <= 0 {
						t.Errorf("submitter %d op %d (seed %d): rejection without a retry hint: %v", sub, op, opt.Seed, err)
					}
					mu.Lock()
					shedMarks = append(shedMarks, marks)
					observed++
					mu.Unlock()
					continue
				}
				if _, err := waitDeadline(j, opt.Deadline); err != nil {
					t.Errorf("submitter %d op %d (seed %d): wait: %v", sub, op, opt.Seed, err)
					continue
				}
				for i, m := range marks {
					if m != 1 {
						t.Errorf("submitter %d op %d (seed %d): iteration %d executed %d times, want 1",
							sub, op, opt.Seed, i, m)
						break
					}
				}
			}
		}(sub)
	}
	wg.Wait()
	waitDrained(t, drained, opt.Deadline)

	// Shed jobs never run — checked after the drain, so a buggy admission
	// that queued the job anyway would have had every chance to execute it.
	for _, marks := range shedMarks {
		for i, m := range marks {
			if m != 0 {
				t.Fatalf("shed job ran iteration %d (%d times): rejected submissions must never execute", i, m)
			}
		}
	}
	// Accounting balances: every rejection the stream saw is in ShedTotal,
	// and ShedTotal decomposes without loss (breaker sheds are the rest).
	st := shed()
	if st.Shed != observed {
		t.Errorf("pool ShedTotal = %d, stream observed %d rejections", st.Shed, observed)
	}
	if st.Infeasible+st.Backlogged > st.Shed {
		t.Errorf("shed accounting out of balance: infeasible %d + backlogged %d > total %d",
			st.Infeasible, st.Backlogged, st.Shed)
	}

	// Phase B: slot-leak probe. Park every worker, then fill the admission
	// queue with fail-fast submissions under a tenant with no deadline
	// history (so breakers cannot interfere): exactly QueueDepth must admit,
	// the next must be rejected as backlogged.
	release, parked := parkWorkers(t, runner, opt, drained)
	var fill []*jobs.Job
	for i := 0; i < opt.QueueDepth; i++ {
		j, err := runner.Submit(jobs.Request{N: 64, Tenant: "ovl-probe", NoWait: true, Body: func(w, lo, hi int) {}})
		if err != nil {
			t.Fatalf("slot %d of %d rejected behind a parked pool: a rejected or completed submission leaked its queue slot: %v",
				i, opt.QueueDepth, err)
		}
		fill = append(fill, j)
	}
	if _, err := runner.Submit(jobs.Request{N: 64, Tenant: "ovl-probe", NoWait: true,
		Body: func(w, lo, hi int) { t.Error("over-depth NoWait job body ran") }}); !errors.Is(err, jobs.ErrBacklogged) {
		t.Errorf("submission %d on a full queue = %v, want ErrBacklogged", opt.QueueDepth+1, err)
	}
	release()
	for _, j := range append(parked, fill...) {
		if _, err := waitDeadline(j, opt.Deadline); err != nil {
			t.Fatalf("drain after slot probe: %v", err)
		}
	}
	waitDrained(t, drained, opt.Deadline)

	// Phase C: breaker recovery. Only for runners with breakers armed.
	if breakerState != nil {
		runBreakerRecovery(t, runner, opt, drained, breakerState)
	}

	// The pool is still whole: a fresh full-width job completes.
	n := opt.Workers * 64
	var covered atomic.Int64
	j, err := runner.Submit(jobs.Request{N: n, Grain: 1, Body: func(w, lo, hi int) {
		covered.Add(int64(hi - lo))
	}})
	if err != nil {
		t.Fatalf("post-stream submit: %v", err)
	}
	if _, err := waitDeadline(j, opt.Deadline); err != nil {
		t.Fatalf("post-stream job: %v", err)
	}
	if covered.Load() != int64(n) {
		t.Fatalf("post-stream job covered %d of %d iterations", covered.Load(), n)
	}
}

// runBreakerRecovery drives one tenant's breaker open with waves of
// deadline-missing jobs completing under queue pressure, then asserts it
// sheds, stops the abuse, and polls it back to closed through half-open
// probes — load dropping must always re-admit a tenant. The runner's
// BreakerCooldown should be >= 100ms so the open-state shed assertion cannot
// race the cooldown expiring.
func runBreakerRecovery(t *testing.T, runner JobRunner, opt OverloadInvariantOptions,
	drained func() DrainStats, breakerState func(tenant string) string) {
	t.Helper()
	const abuser = "ovl-abuser"

	// Each wave parks the pool, queues a queue's worth of abuser jobs whose
	// deadlines are feasible at submit (the runner may have ShedInfeasible
	// armed) but expire while the pool stays parked, then releases — so the
	// misses are recorded while the abuser's backlog keeps its queue share
	// high. A 0.5 error budget crosses after ~11 consecutive misses, a few
	// waves at any realistic queue depth.
	waveSize := opt.QueueDepth
	if waveSize > 8 {
		waveSize = 8
	}
	hardDeadline := time.Now().Add(opt.Deadline)
	for wave := 0; breakerState(abuser) != "open"; wave++ {
		if wave >= 10 || time.Now().After(hardDeadline) {
			t.Fatalf("abuser breaker still %q after %d miss waves", breakerState(abuser), wave)
		}
		release, parked := parkWorkers(t, runner, opt, drained)
		// The parked blockers' long run times inflate the service-time EWMA,
		// so a fixed deadline would eventually be shed as infeasible; on an
		// ErrInfeasible rejection the deadline is pushed past the estimator's
		// horizon instead. The pool then stays parked past the latest granted
		// deadline, so every admitted job still misses.
		latest := time.Now()
		var abuse []*jobs.Job
		for i := 0; i < waveSize; i++ {
			d := time.Now().Add(60 * time.Millisecond)
			var j *jobs.Job
			for attempt := 0; ; attempt++ {
				var err error
				j, err = runner.Submit(jobs.Request{
					N: 64, Tenant: abuser, Deadline: d,
					Body: func(w, lo, hi int) {},
				})
				if err == nil {
					break
				}
				retry, ok := jobs.SuggestedRetry(err)
				if !errors.Is(err, jobs.ErrInfeasible) || !ok || attempt >= 8 {
					t.Fatalf("wave %d: abuse job %d: %v", wave, i, err)
				}
				d = time.Now().Add(2*retry + 60*time.Millisecond<<attempt)
			}
			if d.After(latest) {
				latest = d
			}
			abuse = append(abuse, j)
		}
		time.Sleep(time.Until(latest.Add(30 * time.Millisecond)))
		release()
		for _, j := range append(parked, abuse...) {
			if _, err := waitDeadline(j, opt.Deadline); err != nil {
				t.Fatalf("wave %d: abuse drain: %v", wave, err)
			}
		}
	}

	// Open: the abuser is shed even with a meetable deadline.
	if _, err := runner.Submit(jobs.Request{N: 64, Tenant: abuser, Deadline: time.Now().Add(time.Hour),
		Body: func(w, lo, hi int) { t.Error("breaker-shed job body ran") }}); !errors.Is(err, jobs.ErrBreakerOpen) {
		t.Errorf("submit on an open breaker = %v, want ErrBreakerOpen", err)
	}

	// Abuse over: keep offering well-behaved probes (tolerating sheds while
	// the cooldown runs) until a half-open probe hits and closes the breaker.
	deadline := time.Now().Add(opt.Deadline)
	for breakerState(abuser) != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %q after the abuse stopped: tenant locked out", breakerState(abuser))
		}
		j, err := runner.Submit(jobs.Request{
			N: 64, Tenant: abuser, Deadline: time.Now().Add(time.Hour),
			Body: func(w, lo, hi int) {},
		})
		if err != nil {
			if !errors.Is(err, jobs.ErrBreakerOpen) {
				t.Fatalf("recovery probe: %v", err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := waitDeadline(j, opt.Deadline); err != nil {
			t.Fatalf("recovery probe wait: %v", err)
		}
	}
	waitDrained(t, drained, opt.Deadline)
}

// parkWorkers occupies every worker with a single-chunk job blocking on a
// channel and waits until they all run, so everything submitted afterwards
// must queue. The returned release is idempotent and registered with
// t.Cleanup: a Fatal while the pool is parked must unblock the workers, or
// the runner's Close (registered as an earlier cleanup) would hang forever.
//
// A sharded runner routes each submission by the shards' momentary load,
// which counts busy workers: a worker still winding down its previous job,
// or one not yet running its blocker, could route two blockers too many to
// one shard, where the last would queue forever (stealing may be off). So
// the pool drains first and each blocker is running before the next is
// submitted.
func parkWorkers(t *testing.T, runner JobRunner, opt OverloadInvariantOptions,
	drained func() DrainStats) (release func(), parked []*jobs.Job) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	waitDrained(t, drained, opt.Deadline)
	for i := 0; i < opt.Workers; i++ {
		j, err := runner.Submit(jobs.Request{N: 1, Tenant: "ovl-probe", Body: func(w, lo, hi int) { <-ch }})
		if err != nil {
			t.Fatalf("parking blocker %d: %v", i, err)
		}
		parked = append(parked, j)
		pollUntil(t, "blocker running", opt.Deadline, func() bool {
			d := drained()
			return d.Running == i+1 && d.BusyWorkers == i+1 && d.QueueDepth == 0
		})
	}
	return release, parked
}

// waitDrained polls the occupancy gauges to zero, like RunJobInvariants'
// drain check.
func waitDrained(t *testing.T, drained func() DrainStats, deadline time.Duration) {
	t.Helper()
	pollUntil(t, "pool to drain", deadline, func() bool {
		d := drained()
		return d.BusyWorkers == 0 && d.QueueDepth == 0 && d.Running == 0 && d.Blocked == 0
	})
}

// pollUntil spins on a condition with a deadline.
func pollUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
