package jobs

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/barrier"
	"loopsched/internal/pool"
	"loopsched/internal/stats"
	"loopsched/internal/trace"
)

// Config configures a jobs scheduler.
type Config struct {
	// Workers is the shared team size P; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; Submit blocks once this many
	// jobs are waiting (backpressure instead of unbounded memory growth).
	// <= 0 selects 1024.
	QueueDepth int
	// MaxWorkersPerJob caps every job's sub-team size; <= 0 means no cap
	// (a lone job may use the whole team).
	MaxWorkersPerJob int
	// DefaultGrain is the self-scheduling chunk size used by elastic jobs
	// that do not set Request.Grain; <= 0 selects a per-job heuristic
	// (roughly 8 chunks per team member).
	DefaultGrain int
	// DisableElastic freezes every sub-team at admission and partitions each
	// job statically — the paper's rigid teams. It exists for comparison
	// (the convoy and straggler benchmarks measure elastic against it) and
	// for callers that require the static-block body contract.
	DisableElastic bool
	// TenantWeights pre-registers tenant accounts with fair-share weights
	// (values < 1 are clamped to 1). Tenants not listed here are created on
	// first use with weight 1; weights can be changed at runtime with
	// SetTenantWeight.
	TenantWeights map[string]int
	// DisableFair replaces the weighted-fair admission policy with the
	// original single FIFO: tenants, weights, priorities and deadlines are
	// ignored for ordering (the tenant accounts still meter served work) and
	// the dispatcher never posts preemption targets. It exists for
	// comparison — the fairshare benchmark measures the policy against it.
	DisableFair bool
	// LockOSThread locks the workers to OS threads (benchmark fidelity);
	// serving daemons and tests usually leave it false so idle workers are
	// cheap goroutines.
	LockOSThread bool
	// Tracer, when non-nil, records every job's lifecycle transitions
	// (submitted, admitted, dispatched, grown, peeled, preempted, stolen,
	// joined, ...) and per-chunk-wave participant stints as spans, and fans
	// the event stream out to subscribers. Nil runs untraced: every hook
	// compiles down to one nil check, keeping the fair-scheduler hot path
	// unchanged. Shards of a Sharded pool share the pool's tracer.
	Tracer *trace.Tracer
	// SLOTarget is the per-tenant deadline-hit objective used by the SLO
	// accounting (see slo.go): the burn rate reported per tenant is the
	// windowed miss fraction divided by the budget (1 - SLOTarget). Outside
	// (0, 1) selects 0.99.
	SLOTarget float64
	// MaxWait bounds how long Submit may block for a queue (or blocked) slot
	// once QueueDepth is reached: past it the submission is rejected with
	// ErrBacklogged instead of waiting forever. <= 0 keeps the original
	// unbounded block. Individual requests can skip the wait entirely with
	// Request.NoWait.
	MaxWait time.Duration
	// ShedInfeasible enables the deadline-feasibility check at submit: a job
	// whose deadline cannot be met even if the queue drains at the measured
	// service rate is rejected with ErrInfeasible (carrying a suggested retry
	// delay) instead of being admitted only to miss. Jobs without deadlines,
	// dependent jobs (After) and batches are never shed by this check.
	ShedInfeasible bool
	// BreakerBurnRate arms the per-tenant circuit breakers (see
	// admission.go): when a tenant's deadline-miss EWMA implies an SLO burn
	// rate at or above this limit while the tenant holds at least
	// BreakerMinShare of the queue, its submissions are shed at intake with
	// ErrBreakerOpen until a cooldown and a successful half-open probe.
	// <= 0 (the default) disables the breakers.
	BreakerBurnRate float64
	// BreakerMinShare is the queue-share guard of the breakers: the minimum
	// fraction of the pool's queued jobs a tenant must hold for its breaker
	// to open (a tenant that misses deadlines without crowding the queue is
	// not shed). <= 0 selects 0.25.
	BreakerMinShare float64
	// BreakerCooldown is how long an open breaker sheds before half-opening
	// to probe for recovery. <= 0 selects 250ms.
	BreakerCooldown time.Duration
	// Checkpoints, when non-nil, persists progress snapshots for requests
	// that carry a Request.Checkpoint: a Put at admission and at every
	// suspension, a Delete at completion or cancellation, and — deliberately
	// — no Delete at Close, so shutting down with suspended jobs is
	// suspend-to-disk and the next process recovers them with Load. All
	// store calls happen at quiescent lifecycle transitions, never on the
	// per-chunk path. Shards of a Sharded pool share the pool's store.
	Checkpoints CheckpointStore
	// Name is used in diagnostics.
	Name string

	// shard is this scheduler's index within its owning Sharded pool (0 for
	// standalone schedulers); carried on every trace event.
	shard int

	// hooks connects this scheduler to sibling shards of a Sharded pool.
	// With hooks set, a dispatcher that runs out of local work steals whole
	// queued jobs from siblings and lends idle workers to their running
	// elastic jobs. Nil for standalone schedulers.
	hooks *stealHooks

	// pool points back to the owning Sharded pool, so blocked jobs released
	// by an upstream's join wave can be admitted to the least-loaded shard
	// at release time instead of the shard that happened to take the
	// submission. Nil for standalone schedulers.
	pool *Sharded

	// admission is the overload-protection state (see admission.go). Every
	// shard of a Sharded pool shares the pool's instance — a tenant's breaker
	// opens pool-wide — the same way hooks and pool are installed; New fills
	// it for standalone schedulers.
	admission *admissionState
}

// stealHooks is the cross-shard cooperation contract a Sharded pool installs
// on each of its shards. Both callbacks run on the shard's dispatcher
// goroutine; they must be non-blocking and may return nil.
type stealHooks struct {
	// totalP is the worker count of the whole sharded pool: the participant
	// cap of an elastic job, which lent workers from sibling shards may grow
	// past the home shard's own size.
	totalP int
	// interval throttles how often an idle dispatcher re-scans its siblings
	// when it has nothing else to wake for.
	interval time.Duration
	// steal returns a whole queued job pulled from a sibling shard, already
	// re-homed onto the calling scheduler, or nil.
	steal func(thief *Scheduler) *Job
	// lend returns a running under-provisioned elastic job on a sibling
	// shard that can absorb the caller's idle workers, or nil.
	lend func(thief *Scheduler) *Job
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.99
	}
	if c.BreakerMinShare <= 0 {
		c.BreakerMinShare = 0.25
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.Name == "" {
		c.Name = "jobs"
	}
}

// Scheduler multiplexes parallel-loop jobs from many concurrent submitters
// onto one persistent worker team. All methods are safe for concurrent use.
//
// The intake/dispatch spine is allocation-free and handoff-direct: jobs come
// out of a per-scheduler freelist, submitters push them straight into the
// weighted-fair queue (no intake channel), and when the pool is idle the
// submitter bypasses the dispatcher entirely — it pops parked workers from
// the shared idle stack and performs the release wave itself, so the handoff
// is one mutex pop plus one buffered channel send per worker (the channel
// send is the futex-style park/unpark: an idle worker is a goroutine parked
// in a channel receive, and the sender's goready makes it runnable without a
// context switch on the submitter). The dispatcher remains the arbiter
// whenever work is queued: fairness, preemption, growth and cross-shard
// stealing all run on its goroutine, woken by a buffered-signal channel and
// a backed-off steal timer instead of polling.
type Scheduler struct {
	cfg  Config
	p    int
	team *pool.Team

	// fq is the admission queue and policy: per-tenant accounts, weights,
	// priorities, deadlines (see fair.go). Submitters push directly into it;
	// sibling shards steal from it directly.
	fq *fairQueue
	// wakeC is the dispatcher's doorbell (buffered-signal pattern):
	// submitters, releasers and parking workers ring it after publishing
	// whatever the dispatcher should look at.
	wakeC chan struct{}
	// idleMu/idleIDs is the shared stack of parked workers. The dispatcher
	// pops teams from it; so does the submit fast path when nothing is
	// queued. idleCond signals Close, which waits for all P to park.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	idleIDs  []int
	// assign carries at most one in-flight assignment per worker: a release
	// wave is k buffered value sends and never blocks.
	assign []chan assignment

	// freeMu/freeJobs is the job freelist: Release pushes recycled jobs,
	// Submit pops them. A plain bounded stack, not a sync.Pool, so a GC
	// cycle cannot empty it mid-benchmark.
	freeMu   sync.Mutex
	freeJobs []*Job

	submitMu sync.RWMutex
	closed   bool
	// releaseClosed closes the release window: set (under submitMu) only
	// after the blocked gauge drained to zero during Close, strictly before
	// intakeClosed. enqueue completes its push under the read lock, so no
	// release can ever race the intake close.
	releaseClosed bool
	// intakeClosed tells the dispatcher no further job can enter fq (set by
	// Close after the submit and release windows shut); the dispatcher exits
	// once it also finds fq empty.
	intakeClosed   atomic.Bool
	dispatcherDone chan struct{}
	closeDone      chan struct{}

	// gateMu/gateCond/blockedHeld apply QueueDepth backpressure to
	// dependent submissions: a blocked job never enters the fair queue, so
	// without this gate a pipeline fan-out could park unbounded memory
	// behind one upstream. blockedHeld mirrors the blocked gauge under a
	// mutex so waiters can sleep on the condition. queuedHeld applies the
	// same bound to the queued population: every queued job holds one slot,
	// reserved at Submit (blocking at the cap) and released when the job is
	// admitted, canceled, or stolen away.
	gateMu      sync.Mutex
	gateCond    *sync.Cond
	blockedHeld int
	queuedHeld  int

	// growSet is the registry of running elastic jobs: the dispatcher grows
	// and preempts over it, and sibling shards read it to find jobs worth
	// lending workers to. Lock order: growMu before fq.mu.
	growMu  sync.Mutex
	growSet map[*Job]struct{}
	// growables mirrors len(growSet) (updated under growMu) so parkWorker
	// can tell lock-free whether the dispatcher has running elastic jobs to
	// grow a freed worker onto, or can stay parked.
	growables atomic.Int32
	// runningScratch/sharesScratch are preemptForWaiting's reusable maps
	// (guarded by growMu), so steady queue pressure allocates nothing.
	runningScratch map[string]int
	sharesScratch  map[string]int

	// Hot counters, padded per the false-sharing discipline of
	// internal/barrier/pad.go: depth is read on every chunk claim (the peel
	// check), busy is bumped twice per assignment by every worker, and both
	// would otherwise share lines with each other and the colder counters
	// below, so one worker's busy.Add would invalidate every other worker's
	// depth load.
	depth   barrier.PaddedInt64
	busy    barrier.PaddedInt64
	running barrier.PaddedInt64

	// suspendMu/suspendSet is the registry of this scheduler's suspended
	// jobs (keyed by home, like the blocked gauge), so Close can sweep them:
	// nothing else would ever retire a job parked in Suspended. suspendClosed
	// closes the park-vs-sweep race — a job that parks after the sweep is
	// canceled by the parking worker itself.
	suspendMu     sync.Mutex
	suspendSet    map[*Job]struct{}
	suspendClosed bool

	submitted   atomic.Int64
	canceled    atomic.Int64
	itersDone   atomic.Int64
	grown       atomic.Int64
	peeled      atomic.Int64
	stolen      atomic.Int64
	lent        atomic.Int64
	blocked     atomic.Int64
	released    atomic.Int64
	depCanceled atomic.Int64
	preempted   atomic.Int64
	// Admission-control rejections at this scheduler (see admission.go):
	// infeasible-deadline and bounded-wait sheds. Breaker sheds are counted
	// on the shared admission state instead — in a Sharded pool they happen
	// before routing and belong to no shard.
	infeasible atomic.Int64
	backlogged atomic.Int64
	// Suspend/checkpoint accounting: the suspended gauge (jobs parked in the
	// Suspended state, outside every queue) plus transition and store-write
	// counters.
	suspended      atomic.Int64
	suspendedTotal atomic.Int64
	resumedTotal   atomic.Int64
	ckptWrites     atomic.Int64
	ckptFails      atomic.Int64
	// lastRunNanos is an EWMA of recent job run times, feeding the
	// deadline-risk horizon of the preemption policy.
	lastRunNanos atomic.Int64

	led window // completion accounting behind Stats' latency fields (slo.go)
}

// New creates and starts a jobs scheduler.
func New(cfg Config) *Scheduler {
	cfg.normalize()
	if cfg.admission == nil {
		cfg.admission = newAdmissionState(cfg)
	}
	s := &Scheduler{
		cfg:            cfg,
		p:              cfg.Workers,
		assign:         make([]chan assignment, cfg.Workers),
		dispatcherDone: make(chan struct{}),
		closeDone:      make(chan struct{}),
		wakeC:          make(chan struct{}, 1),
		fq:             newFairQueue(cfg.DisableFair, cfg.TenantWeights),
		growSet:        make(map[*Job]struct{}),
		suspendSet:     make(map[*Job]struct{}),
		idleIDs:        make([]int, 0, cfg.Workers),
	}
	s.idleCond = sync.NewCond(&s.idleMu)
	s.gateCond = sync.NewCond(&s.gateMu)
	if s.cfg.admission.share == nil && s.cfg.pool == nil {
		// Standalone pool view for the breakers' queue-share guard; Sharded
		// installs a pool-wide closure before constructing its shards.
		s.cfg.admission.share = func(tenant string) float64 {
			total := s.depth.Load()
			if total <= 0 {
				return 0
			}
			return float64(s.fq.depthOf(tenant)) / float64(total)
		}
	}
	s.led.N = latencyWindow
	for w := 0; w < s.p; w++ {
		s.assign[w] = make(chan assignment, 1)
		s.idleIDs = append(s.idleIDs, w)
	}
	s.team = pool.New(pool.Config{Workers: s.p, LockOSThread: cfg.LockOSThread, Name: cfg.Name})
	s.team.StartAll(s.worker)
	go s.dispatch()
	return s
}

// newJob pops a recycled job from the freelist (or allocates one) and readies
// it for a fresh generation.
func (s *Scheduler) newJob() *Job {
	var j *Job
	s.freeMu.Lock()
	if n := len(s.freeJobs); n > 0 {
		j = s.freeJobs[n-1]
		s.freeJobs[n-1] = nil
		s.freeJobs = s.freeJobs[:n-1]
	}
	s.freeMu.Unlock()
	if j == nil {
		j = &Job{}
		j.waitCond.L = &j.waitMu
	}
	return j
}

// wake rings the dispatcher's doorbell (never blocks; a pending signal
// coalesces).
func (s *Scheduler) wake() {
	select {
	case s.wakeC <- struct{}{}:
	default:
	}
}

// parkWorker pushes a finished worker onto the idle stack, signals any Close
// waiting for the team to quiesce, and wakes the dispatcher — but only when
// the dispatcher has something to do with the freed worker: local tenants
// queued (depth), a running elastic job to grow back onto (growables), or
// sibling shards to scan for steals and lends (hooks; the steal timer is
// only armed while the dispatcher knows idle workers exist, so the wake must
// not be skipped). Every queue entry counts in depth from before its push
// to after its removal, so the depth test also wakes a Close waiting for the
// dispatcher to drain the queue. In the single-shard idle steady state every
// completion would otherwise pay a full empty dispatch scan.
func (s *Scheduler) parkWorker(id int) {
	s.idleMu.Lock()
	s.idleIDs = append(s.idleIDs, id)
	s.idleMu.Unlock()
	s.idleCond.Signal()
	if s.depth.Load() > 0 || s.growables.Load() > 0 || s.cfg.hooks != nil {
		s.wake()
	}
}

// grabIdle pops up to max parked workers into dst (reusing its capacity).
func (s *Scheduler) grabIdle(dst []int, max int) []int {
	s.idleMu.Lock()
	n := len(s.idleIDs)
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.idleIDs[len(s.idleIDs)-1])
		s.idleIDs = s.idleIDs[:len(s.idleIDs)-1]
	}
	s.idleMu.Unlock()
	return dst
}

// putIdle returns unused workers to the idle stack.
func (s *Scheduler) putIdle(ids []int) {
	if len(ids) == 0 {
		return
	}
	s.idleMu.Lock()
	s.idleIDs = append(s.idleIDs, ids...)
	s.idleMu.Unlock()
	s.idleCond.Signal()
}

// idleCount returns the number of parked workers.
func (s *Scheduler) idleCount() int {
	s.idleMu.Lock()
	n := len(s.idleIDs)
	s.idleMu.Unlock()
	return n
}

// P returns the team size.
func (s *Scheduler) P() int { return s.p }

// Name returns the scheduler's diagnostic name.
func (s *Scheduler) Name() string { return s.cfg.Name }

// Submit enqueues a job and returns immediately. It blocks only when the
// admission queue is full. Submit is safe from any number of goroutines.
// A request with dependencies (Request.After) is parked in the Blocked state
// and enters the admission queue only when its last upstream completes.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	return s.submit(req, s.cfg.pool)
}

// submitPinned is Submit for shard-pinned jobs: a blocked job released by
// its upstreams re-enters this scheduler's own queue instead of routing to
// the least-loaded shard, preserving the pin.
func (s *Scheduler) submitPinned(req Request) (*Job, error) {
	return s.submit(req, nil)
}

func (s *Scheduler) submit(req Request, pool *Sharded) (*Job, error) {
	switch {
	case req.Body == nil && req.RBody == nil:
		return nil, errors.New("jobs: request needs a Body or an RBody")
	case req.Body != nil && req.RBody != nil:
		return nil, errors.New("jobs: request must set exactly one of Body and RBody")
	case req.RBody != nil && req.Combine == nil:
		return nil, errors.New("jobs: reducing request needs a Combine")
	}
	for _, u := range req.After {
		if u == nil {
			return nil, errors.New("jobs: nil upstream in After")
		}
	}
	if len(req.After) > 0 {
		if err := checkCycle(req.After); err != nil {
			return nil, err
		}
	}
	// Admission control (see admission.go), before any allocation: the
	// breaker check for standalone schedulers (a Sharded pool already ran it
	// before routing), then the deadline-feasibility estimate. Both are
	// opt-in, so the default submit path pays two nil-ish branch checks.
	if s.cfg.pool == nil && s.cfg.admission.breakersOn() {
		tenant := tenantName(req.Tenant)
		if retry, ok := s.cfg.admission.allow(tenant, time.Now()); !ok {
			// allow already counted the shed on the shared admission state
			// (the pool-wide ledger breaker sheds live on, whichever intake
			// front rejected them).
			s.traceShed(&req, tenant, "breaker")
			return nil, &OverloadError{Err: ErrBreakerOpen, RetryAfter: retry}
		}
	}
	if s.cfg.ShedInfeasible && req.N > 0 && len(req.After) == 0 && !req.Deadline.IsZero() {
		if retry, bad := s.infeasibleDelay(req.Deadline, time.Now()); bad {
			tenant := tenantName(req.Tenant)
			s.infeasible.Add(1)
			s.cfg.admission.noteInfeasible(tenant)
			s.traceShed(&req, tenant, "infeasible")
			return nil, &OverloadError{Err: ErrInfeasible, RetryAfter: retry}
		}
	}
	j := s.newJob()
	j.req = req
	j.s, j.home = s, s
	j.pool = pool
	j.submitted = time.Now()
	j.acyclic = true
	j.tenant, j.prio, j.deadline = tenantName(req.Tenant), req.Priority, req.Deadline
	recovered := req.Checkpoint != nil && req.Checkpoint.JobID != 0
	if s.cfg.Tracer != nil {
		if recovered {
			// Crash recovery: re-begin the trace under the checkpoint's
			// original id, so /trace/{job} and event subscribers see one
			// continuous lifecycle across the restart.
			j.tr = s.cfg.Tracer.BeginAt(req.Checkpoint.JobID, j.tenant, req.Label, req.Priority)
			j.tr.Event(trace.EvSubmitted, s.cfg.shard, 0, "recovered")
		} else {
			j.tr = s.cfg.Tracer.Begin(j.tenant, req.Label, req.Priority)
			j.tr.Event(trace.EvSubmitted, s.cfg.shard, 0, "")
		}
	}
	s.initCheckpoint(j, &req)
	if len(req.After) > 0 {
		// Copy the edge list so later caller mutations of the request slice
		// cannot corrupt the verified graph, and drop the request's own
		// reference so depDone's ancestry-unpinning actually frees the
		// chain (nothing reads req.After after this point).
		j.after = append([]*Job(nil), req.After...)
		j.req.After = nil
		// The same QueueDepth backpressure Submit applies through the queue
		// channel, applied to the blocked population: sleeps until a slot
		// frees (an earlier dependent released or canceled), bounded by
		// MaxWait/NoWait like the queued gate. Held locks would block Close,
		// so the wait happens before the read lock.
		if err := s.reserveSlots(&s.blockedHeld, 1, s.cfg.MaxWait, req.NoWait); err != nil {
			s.backlogged.Add(1)
			s.cfg.admission.noteBacklogged(j.tenant)
			if j.tr != nil {
				j.tr.Event(trace.EvShed, s.cfg.shard, 0, "backlogged")
			}
			s.freeJob(j)
			return nil, err
		}
		s.submitMu.RLock()
		if s.closed {
			s.submitMu.RUnlock()
			s.signalBlockedFreed()
			s.freeJob(j)
			return nil, ErrClosed
		}
		s.submitted.Add(1)
		s.fq.account(j.tenant).submitted.Add(1)
		// The blocked gauge is raised under the read lock: Close's
		// write-lock barrier guarantees its blocked drain starts only after
		// observing this job.
		s.blocked.Add(1)
		s.submitMu.RUnlock()
		j.tr.SetOwner(j)
		j.block()
		return j, nil
	}
	if req.N <= 0 {
		s.submitMu.RLock()
		defer s.submitMu.RUnlock()
		if s.closed {
			s.freeJob(j)
			return nil, ErrClosed
		}
		s.submitted.Add(1)
		s.fq.account(j.tenant).submitted.Add(1)
		s.completeInline(j, Pending)
		return j, nil
	}
	// Fast path — direct handoff. With nothing queued anywhere, hand the job
	// straight to parked workers from the submitter's own goroutine: no
	// queue-slot reservation, no fair-queue push, no dispatcher round trip.
	// Fairness is safe to bypass exactly when the queue is empty (arbitration
	// orders *waiting* jobs; an empty queue has nothing to order).
	s.submitMu.RLock()
	if !s.closed && s.tryDirectAdmit(j) {
		s.submitMu.RUnlock()
		return j, nil
	}
	s.submitMu.RUnlock()
	// Queued path. QueueDepth backpressure on the queued population: every
	// queued job holds one slot, reserved within MaxWait (or not at all
	// under NoWait). A held lock would block Close, so the wait happens
	// before the read lock.
	if err := s.reserveSlots(&s.queuedHeld, 1, s.cfg.MaxWait, req.NoWait); err != nil {
		s.backlogged.Add(1)
		s.cfg.admission.noteBacklogged(j.tenant)
		if j.tr != nil {
			j.tr.Event(trace.EvShed, s.cfg.shard, 0, "backlogged")
		}
		s.freeJob(j)
		return nil, err
	}
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed {
		s.releaseQueueSlot()
		s.freeJob(j)
		return nil, ErrClosed
	}
	s.submitted.Add(1)
	s.fq.account(j.tenant).submitted.Add(1)
	s.depth.Add(1)
	// Admitted to the intake before the queue push, so the event is always
	// published before the dispatcher can emit the job's dispatched event.
	j.tr.SetOwner(j)
	j.tr.Event(trace.EvAdmitted, s.cfg.shard, 0, "")
	s.fq.push(j)
	s.wake()
	return j, nil
}

// traceShed records the lifecycle of a submission rejected before a Job was
// ever allocated: submitted then shed, a complete (terminal) trace.
func (s *Scheduler) traceShed(req *Request, tenant, detail string) {
	if s.cfg.Tracer == nil {
		return
	}
	tr := s.cfg.Tracer.Begin(tenant, req.Label, req.Priority)
	tr.Event(trace.EvSubmitted, s.cfg.shard, 0, "")
	tr.Event(trace.EvShed, s.cfg.shard, 0, detail)
}

// directTeamMax caps how many workers a fast-path submit hands off inline
// (the pop buffer lives on the submitter's stack). Elastic jobs wake the
// dispatcher to grow past it; rigid jobs wanting more take the queued path.
const directTeamMax = 8

// tryDirectAdmit is the submit fast path: when nothing is queued and workers
// are parked, mold a sub-team and perform the release wave on the
// submitter's goroutine. Caller holds submitMu.RLock with closed == false.
// Returns false (job untouched) when the path does not apply; the caller
// then queues normally.
func (s *Scheduler) tryDirectAdmit(j *Job) bool {
	if s.depth.Load() != 0 {
		return false
	}
	elastic := s.elasticFor(j)
	var chunk, maxK, want int
	if elastic {
		chunk = s.chunkFor(j)
		maxK = s.maxTeam(j, chunk)
		want = maxK
		if want > s.p {
			want = s.p
		}
	} else {
		grain := j.req.Grain
		if grain <= 0 {
			grain = 1
		}
		want = s.capTeam(j, grain)
	}
	if want > directTeamMax {
		if !elastic {
			// A rigid sub-team is molded once; do not silently cap it at the
			// buffer size when the dispatcher would assemble a larger one.
			return false
		}
		want = directTeamMax
	}
	var buf [directTeamMax]int
	s.idleMu.Lock()
	n := len(s.idleIDs)
	if n == 0 {
		s.idleMu.Unlock()
		return false
	}
	if n > want {
		n = want
	}
	for i := 0; i < n; i++ {
		buf[i] = s.idleIDs[len(s.idleIDs)-1]
		s.idleIDs = s.idleIDs[:len(s.idleIDs)-1]
	}
	s.idleMu.Unlock()
	s.submitted.Add(1)
	s.fq.account(j.tenant).submitted.Add(1)
	s.admitDirect(j, buf[:n], elastic, chunk, maxK)
	if elastic && n < maxK {
		// Under-provisioned: let the dispatcher top the team up (grow) once
		// more workers park. A full team (n == maxK) needs no wake — growth
		// is capped at maxK, and a participant that later peels re-rings
		// the doorbell from parkWorker via the growables gauge.
		s.wake()
	}
	return true
}

// SubmitBatch submits up to len(reqs) independent jobs under one queue-lock
// acquisition, filling out[i] with the job for reqs[i]. It is the amortized
// intake path: one submitMu read-section, one depth update and one fair-queue
// lock admit the whole batch, against one of each per job for Submit. The
// requests must not carry dependencies (After) — batched admission is for
// independent fan-out; use Submit for graph edges. Degenerate requests
// (N <= 0) complete inline as in Submit. out must have at least len(reqs)
// entries; it is the caller's storage, so steady-state batches allocate
// nothing. On error, out[i] is non-nil for exactly the requests that were
// submitted (an invalid request fails the whole batch before any submission;
// ErrClosed or ErrBacklogged can split a batch mid-way — the latter only
// with Config.MaxWait set and a chunk's slot reservation expiring). Batches
// bypass the feasibility and breaker checks (bulk intake; Submit is the
// admission-controlled path), but the bounded slot wait still applies.
func (s *Scheduler) SubmitBatch(reqs []Request, out []*Job) error {
	if len(out) < len(reqs) {
		return errors.New("jobs: SubmitBatch needs len(out) >= len(reqs)")
	}
	for i := range reqs {
		req := &reqs[i]
		switch {
		case req.Body == nil && req.RBody == nil:
			return errors.New("jobs: request needs a Body or an RBody")
		case req.Body != nil && req.RBody != nil:
			return errors.New("jobs: request must set exactly one of Body and RBody")
		case req.RBody != nil && req.Combine == nil:
			return errors.New("jobs: reducing request needs a Combine")
		case len(req.After) > 0:
			return errors.New("jobs: SubmitBatch requests cannot carry After; use Submit for dependencies")
		case req.Checkpoint != nil:
			return errors.New("jobs: SubmitBatch requests cannot carry Checkpoint; use Submit")
		}
	}
	// Chunk by QueueDepth so the slot reservation below can always be
	// satisfied in one piece.
	for start := 0; start < len(reqs); start += s.cfg.QueueDepth {
		end := start + s.cfg.QueueDepth
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := s.submitBatchChunk(reqs[start:end], out[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// submitBatchChunk admits one QueueDepth-bounded slice of a batch.
func (s *Scheduler) submitBatchChunk(reqs []Request, out []*Job) error {
	queued := 0
	for i := range reqs {
		if reqs[i].N > 0 {
			queued++
		}
	}
	if queued > 0 {
		if err := s.reserveSlots(&s.queuedHeld, queued, s.cfg.MaxWait, false); err != nil {
			// The whole chunk is rejected before any job was created; each
			// rejected request counts as one shed.
			s.backlogged.Add(int64(queued))
			for i := range reqs {
				if reqs[i].N > 0 {
					s.cfg.admission.noteBacklogged(tenantName(reqs[i].Tenant))
				}
			}
			return err
		}
	}
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.closed {
		if queued > 0 {
			s.releaseQueueSlots(queued)
		}
		return ErrClosed
	}
	now := time.Now()
	for i := range reqs {
		req := reqs[i]
		j := s.newJob()
		j.req = req
		j.s, j.home = s, s
		j.submitted = now
		j.acyclic = true
		j.tenant, j.prio, j.deadline = tenantName(req.Tenant), req.Priority, req.Deadline
		if s.cfg.Tracer != nil {
			j.tr = s.cfg.Tracer.Begin(j.tenant, req.Label, req.Priority)
			j.tr.Event(trace.EvSubmitted, s.cfg.shard, 0, "")
		}
		if req.N <= 0 {
			s.submitted.Add(1)
			s.fq.account(j.tenant).submitted.Add(1)
			s.completeInline(j, Pending)
			out[i] = j
			continue
		}
		if j.tr != nil {
			j.tr.SetOwner(j)
			j.tr.Event(trace.EvAdmitted, s.cfg.shard, 0, "batch")
		}
		out[i] = j
	}
	if queued > 0 {
		s.submitted.Add(int64(queued))
		s.depth.Add(int64(queued))
		s.fq.pushBatch(out, true)
		s.wake()
	}
	return nil
}

// reserveSlots blocks until n more jobs fit under QueueDepth in the
// population *held counts (queuedHeld or blockedHeld) and reserves them,
// within maxWait (<= 0 waits forever), or not at all under noWait. n must
// not exceed QueueDepth (SubmitBatch chunks accordingly). Slots drain as the
// dispatcher admits jobs, as upstreams complete or as jobs are canceled,
// never on the caller, so an unbounded wait always ends.
func (s *Scheduler) reserveSlots(held *int, n int, maxWait time.Duration, noWait bool) error {
	s.gateMu.Lock()
	if *held+n <= s.cfg.QueueDepth {
		*held += n
		s.gateMu.Unlock()
		return nil
	}
	if noWait {
		s.gateMu.Unlock()
		return s.backloggedError()
	}
	deadline, timer := s.armGateTimeout(maxWait)
	if timer != nil {
		defer timer.Stop()
	}
	for *held+n > s.cfg.QueueDepth {
		if timer != nil && !time.Now().Before(deadline) {
			s.gateMu.Unlock()
			return s.backloggedError()
		}
		s.gateCond.Wait()
	}
	*held += n
	s.gateMu.Unlock()
	return nil
}

// armGateTimeout starts the gate-wait expiry for one bounded reservation: an
// AfterFunc that broadcasts the gate condition so the waiter (re)checks its
// deadline. Returns a nil timer for maxWait <= 0 (unbounded). The timer
// allocates, but only on the contended path — an uncontended reserve never
// reaches it, keeping the submit fast path allocation-free. The callback
// only broadcasts (it never touches the counts), so a stray late firing is
// harmless, and Stop after the gate wait settles is merely an optimization.
func (s *Scheduler) armGateTimeout(maxWait time.Duration) (time.Time, *time.Timer) {
	if maxWait <= 0 {
		return time.Time{}, nil
	}
	return time.Now().Add(maxWait), time.AfterFunc(maxWait, func() {
		s.gateMu.Lock()
		s.gateCond.Broadcast()
		s.gateMu.Unlock()
	})
}

// releaseQueueSlots returns n queued slots at once.
func (s *Scheduler) releaseQueueSlots(n int) {
	s.gateMu.Lock()
	s.queuedHeld -= n
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
}

// initCheckpoint attaches the store snapshot template to a freshly allocated
// job and writes the first checkpoint, before the job can possibly execute
// (submit has not yet queued or dispatched it), so the store never holds a
// stale snapshot of work that already ran. Requests without a Checkpoint —
// or submitted without a tracer, which assigns the ids — stay non-durable.
func (s *Scheduler) initCheckpoint(j *Job, req *Request) {
	if req.Checkpoint == nil {
		return
	}
	c := *req.Checkpoint
	if c.JobID == 0 {
		if j.tr == nil {
			return
		}
		c.JobID = j.tr.ID
	}
	c.Label = req.Label
	c.Tenant, c.Priority, c.Deadline = j.tenant, j.prio, j.deadline
	c.N = req.N
	c.Commutative = req.Commutative
	// Persist dependency edges as upstream trace ids, so recovery can rebuild
	// the graph among jobs that were all unfinished at the crash.
	if len(req.After) > 0 {
		c.After = make([]uint64, 0, len(req.After))
		for _, u := range req.After {
			if id := u.TraceID(); id != 0 {
				c.After = append(c.After, id)
			}
		}
	}
	if c.Cursor > 0 && req.RBody != nil && req.Combine != nil && req.Commutative && !s.cfg.DisableElastic {
		// Recovered mid-space: resume the cursor and the partial fold.
		j.resumeFrom, j.resumeAcc = c.Cursor, c.Acc
	} else {
		// Fresh submission, or a recovered job whose reduction cannot resume
		// mid-space (rigid teams, ordered reducers, plain bodies): restart
		// from iteration 0 and let the checkpoint reflect that.
		c.Cursor, c.Acc = 0, 0
	}
	j.ckptSeed = j.resumeFrom
	j.ckpt = &c
	s.writeCheckpoint(j)
}

// writeCheckpoint puts the job's current snapshot — identity template plus
// the live (cursor, acc) watermark — into the configured store. Failures are
// counted, not fatal: the job keeps running, only its recoverability degrades.
func (s *Scheduler) writeCheckpoint(j *Job) {
	st := s.cfg.Checkpoints
	if st == nil || j.ckpt == nil {
		return
	}
	cp := *j.ckpt
	cp.Cursor = j.resumeFrom
	cp.Acc = j.resumeAcc
	if err := st.Put(cp); err != nil {
		s.ckptFails.Add(1)
		return
	}
	s.ckptWrites.Add(1)
}

// deleteCheckpoint drops the job's snapshot from the store (completion,
// cancellation, failed submission). Idempotent; a nil store or a job that was
// never durable is a no-op.
func (s *Scheduler) deleteCheckpoint(j *Job) {
	st := s.cfg.Checkpoints
	if st == nil || j.ckpt == nil {
		return
	}
	if err := st.Delete(j.ckpt.JobID); err != nil {
		s.ckptFails.Add(1)
	}
}

// signalBlockedFreed returns a blocked slot (the job released, canceled, or
// failed submission) and wakes the gate waiters: submitters parked at the
// cap and a Close draining the blocked population. Broadcast, not Signal —
// a lone wakeup could land on a submitter and starve the closer.
func (s *Scheduler) signalBlockedFreed() {
	s.gateMu.Lock()
	s.blockedHeld--
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
}

// joinQueue counts a job into this scheduler's queue on the paths that must
// not block (released or resumed jobs, jobs stolen in from a sibling shard):
// the depth, and a queued slot taken without waiting. The population may
// transiently exceed QueueDepth; both sources are bounded elsewhere (the
// blocked gate, the victim's own slot count).
func (s *Scheduler) joinQueue() {
	s.depth.Add(1)
	s.gateMu.Lock()
	s.queuedHeld++
	s.gateMu.Unlock()
}

// leaveQueue counts a job out of this scheduler's queue (admitted, canceled,
// suspended or stolen away): the depth other tenants' fair share is computed
// from, and its queued slot.
func (s *Scheduler) leaveQueue() {
	s.depth.Add(-1)
	s.releaseQueueSlot()
}

// releaseQueueSlot returns a queued slot (the job was admitted, canceled,
// stolen away, or failed submission) and wakes gate waiters.
func (s *Scheduler) releaseQueueSlot() {
	s.gateMu.Lock()
	s.queuedHeld--
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
}

// teamSize picks the sub-team size a job is admitted on: bounded by the
// scheduler-wide and per-job caps, by the job's size (never fewer than Grain
// iterations per worker), and by the queue pressure — with waiting jobs
// behind this one, each admitted job takes only its fair share of the team
// so concurrent tenants run side by side instead of serialising. Elastic
// jobs later grow past this initial size (up to their caps) when workers
// idle, and shrink below it under queue pressure.
func (s *Scheduler) teamSize(j *Job, waiting int) int {
	grain := j.req.Grain
	if grain <= 0 {
		grain = 1
	}
	k := s.capTeam(j, grain)
	if fair := s.p / (waiting + 1); k > fair {
		k = fair
	}
	if k < 1 {
		k = 1
	}
	return k
}

// capTeam is the shared worker-cap policy: the base worker count clamped by
// the scheduler-wide and per-job caps and by the number of grain-sized
// pieces of the iteration space (a worker beyond one-per-piece could never
// claim work), floored at 1.
func (s *Scheduler) capTeam(j *Job, grain int) int {
	return s.capTeamBase(s.p, j, grain)
}

func (s *Scheduler) capTeamBase(k int, j *Job, grain int) int {
	if s.cfg.MaxWorkersPerJob > 0 && k > s.cfg.MaxWorkersPerJob {
		k = s.cfg.MaxWorkersPerJob
	}
	if j.req.MaxWorkers > 0 && k > j.req.MaxWorkers {
		k = j.req.MaxWorkers
	}
	// Size by the remaining work: a resumed job's team is molded for the
	// unclaimed tail of its space, not the iterations already executed.
	if bySize := (j.req.N - j.resumeFrom + grain - 1) / grain; k > bySize {
		k = bySize
	}
	if k < 1 {
		k = 1
	}
	return k
}

// chunkFor picks the self-scheduling chunk size of an elastic job: the
// request's Grain, the scheduler default, or a heuristic targeting ~8 chunks
// per team member (enough slack for balancing and peeling without measurable
// claim traffic).
func (s *Scheduler) chunkFor(j *Job) int {
	if j.req.Grain > 0 {
		return j.req.Grain
	}
	if s.cfg.DefaultGrain > 0 {
		return s.cfg.DefaultGrain
	}
	chunk := j.req.N / (8 * s.p)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// maxTeam is the hard participant cap of an elastic job: the shared cap
// policy evaluated at the job's actual chunk size. In a sharded pool the
// base is the whole pool's worker count, so sibling shards can lend workers
// past the home shard's own size.
func (s *Scheduler) maxTeam(j *Job, chunk int) int {
	base := s.p
	if s.cfg.hooks != nil && s.cfg.hooks.totalP > base {
		base = s.cfg.hooks.totalP
	}
	return s.capTeamBase(base, j, chunk)
}

// elasticFor reports whether a job takes the elastic path. Non-commutative
// reductions keep the rigid path: their fold order (sub-worker order over
// static blocks) is part of the result.
func (s *Scheduler) elasticFor(j *Job) bool {
	if s.cfg.DisableElastic {
		return false
	}
	return j.req.RBody == nil || j.req.Commutative
}

// dispatch is the arbitration loop. It no longer sits on an intake channel —
// submitters push into the fair queue themselves (or bypass it entirely on
// the direct-handoff fast path) and ring wakeC. Each round the dispatcher:
// prunes the grow registry; admits jobs in policy order (priority class, then
// weighted-fair stride arbitration between tenants, EDF within a class) onto
// parked workers, performing each fork-side release wave (one buffered value
// send per chosen worker; like the paper's release half-barrier, it never
// waits for a sub-team); posts chunk-granular preemption targets on running
// jobs when tenants wait with no idle worker; and — when no tenant is
// waiting — re-molds idle workers onto running elastic jobs that still have
// unclaimed chunks. With steal hooks installed, a dispatcher whose shard has
// gone fully idle pulls whole queued jobs from sibling shards and lends idle
// workers to their running elastic jobs, re-scanning on a timer whose period
// backs off exponentially (up to 64x) while scans come up empty, so an idle
// pool costs timer wakeups, not polling.
func (s *Scheduler) dispatch() {
	defer close(s.dispatcherDone)
	var ws []int // admission scratch: workers popped this round
	var stealTimer *time.Timer
	var stealC <-chan time.Time
	emptyScans := 0
	if s.cfg.hooks != nil {
		// go.mod declares go >= 1.23, so the timer channel is synchronous:
		// Stop and Reset guarantee no stale expiry is ever received, and no
		// drain dance is needed around either.
		stealTimer = time.NewTimer(time.Hour)
		stealTimer.Stop()
		defer stealTimer.Stop()
	}
	for {
		s.pruneGrowSet()
		// Admit in policy order while both queued work and parked workers
		// remain. Workers are popped before the queue pop so a job is never
		// taken out of the fair queue without a team to put it on.
		ws = ws[:0]
		for {
			if len(ws) == 0 {
				ws = s.grabIdle(ws, s.p)
				if len(ws) == 0 {
					break
				}
			}
			j := s.fq.pop()
			if j == nil {
				break
			}
			ws = s.admit(j, ws)
		}
		s.putIdle(ws)
		ws = ws[:0]
		if s.fq.len() > 0 {
			// Tenants are waiting and every worker is busy (the admit loop
			// above drained one or the other): post chunk-granular
			// preemption targets on over-share or out-prioritized running
			// elastic jobs, so workers peel between chunks instead of the
			// waiting jobs sitting out whole completions.
			s.preemptForWaiting()
		} else if s.depth.Load() == 0 {
			// No tenant waits anywhere: lift the preemption constraints so
			// running jobs can use the whole team again.
			s.clearShrinkTargets()
		}
		// The depth guard closes the race with a tenant that was submitted
		// (depth is incremented before the fair-queue push) but not yet
		// pushed: a worker that just peeled for that tenant must not be
		// grown straight back onto the job it left.
		if s.fq.len() == 0 && s.depth.Load() == 0 && s.idleCount() > 0 {
			ws = s.grabIdle(ws[:0], s.p)
			ws = s.grow(ws)
			// Cross-shard work conservation: with local admission, growth
			// and the queue all exhausted but workers still idle, pull work
			// from sibling shards — first a whole queued job (admitted
			// exactly like a local one), else lend the idle workers to a
			// running under-provisioned elastic job over there.
			if s.cfg.hooks != nil && !s.intakeClosed.Load() && len(ws) > 0 && s.depth.Load() == 0 {
				if j := s.cfg.hooks.steal(s); j != nil {
					s.stolen.Add(1)
					emptyScans = 0
					s.fq.push(j)
					s.putIdle(ws)
					continue // restart: admit the stolen job
				}
				if lj := s.cfg.hooks.lend(s); lj != nil {
					emptyScans = 0
					ws = s.lendTo(lj, ws)
				} else if emptyScans < 6 {
					emptyScans++
				}
			}
			s.putIdle(ws)
			ws = ws[:0]
		}
		// Exit once the intake has closed (Close shut the submit and release
		// windows first, so nothing can enter fq anymore) and the queue is
		// drained.
		if s.intakeClosed.Load() && s.fq.len() == 0 {
			break
		}
		// Park. wakeC coalesces all wake reasons (submits, releases, parking
		// workers, Close); with idle workers and siblings to steal from, the
		// timer re-scans at the current backed-off period.
		stealC = nil
		if stealTimer != nil && !s.intakeClosed.Load() && s.idleCount() > 0 {
			stealTimer.Reset(s.cfg.hooks.interval << emptyScans)
			stealC = stealTimer.C
		}
		fired := false
		select {
		case <-s.wakeC:
			emptyScans = 0 // local traffic: scan siblings promptly again
		case <-stealC:
			fired = true
		}
		// Quiesce the armed timer; a stale expiry can never be received
		// after Stop under the go1.23+ timer semantics.
		if stealC != nil && !fired {
			stealTimer.Stop()
		}
	}
}

// pruneGrowSet drops registry entries whose jobs completed or drained their
// cursors (growth lazily discovers both).
func (s *Scheduler) pruneGrowSet() {
	s.growMu.Lock()
	for j := range s.growSet {
		if j.State() != Running || j.cursor.Remaining() == 0 {
			delete(s.growSet, j)
		}
	}
	s.growables.Store(int32(len(s.growSet)))
	s.growMu.Unlock()
}

// clearShrinkTargets lifts every posted preemption constraint.
func (s *Scheduler) clearShrinkTargets() {
	s.growMu.Lock()
	for j := range s.growSet {
		j.shrinkTo.Store(0)
	}
	s.growMu.Unlock()
}

// preemptForWaiting implements the preemption policy: with jobs waiting and
// the team fully busy, every tenant's weighted share of the team is
// computed over the tenants currently queued or running, and each running
// elastic job whose sub-team exceeds its tenant's per-job allowance gets a
// shrink target posted. The allowance is halved when the best waiting job
// out-prioritizes the victim or carries a deadline at risk, so urgent work
// admits within chunks rather than whole job completions. Participants
// observe the target between chunks (see Job.runElastic) and peel — never
// below one participant, so the victim always completes its join wave.
func (s *Scheduler) preemptForWaiting() {
	if s.cfg.DisableFair {
		return
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	if len(s.growSet) == 0 {
		return
	}
	headPrio, headDeadline, ok := s.fq.peek()
	if !ok {
		return
	}
	risk := s.deadlineRisk(headDeadline)
	if s.runningScratch == nil {
		s.runningScratch = make(map[string]int)
		s.sharesScratch = make(map[string]int)
	}
	runningJobs, shares := s.runningScratch, s.sharesScratch
	clear(runningJobs)
	for j := range s.growSet {
		runningJobs[j.tenant]++
	}
	s.fq.shares(s.p, runningJobs, shares)
	for j := range s.growSet {
		allowed := shares[j.tenant] / runningJobs[j.tenant]
		if allowed < 1 {
			allowed = 1
		}
		if (headPrio > j.prio || risk) && allowed > 1 {
			allowed = (allowed + 1) / 2
		}
		target := int32(allowed)
		old := j.shrinkTo.Load()
		if old == target {
			continue
		}
		j.shrinkTo.Store(target)
		// Count a preemption decision only when the new target actually
		// constrains the job below its current sub-team and tightens the
		// previous target, so a steady policy is not re-counted every loop.
		if (old == 0 || old > target) && j.active.Load() > target {
			s.preempted.Add(1)
			s.fq.account(j.tenant).preempted.Add(1)
			j.tr.Event(trace.EvPreempted, s.cfg.shard, allowed, "")
		}
	}
}

// deadlineRisk reports whether a waiting job's deadline is close enough
// that waiting for a running job to finish on its own would likely miss it:
// within twice the recent average job run time (floored at 1ms so a cold
// scheduler still honors tight deadlines).
func (s *Scheduler) deadlineRisk(deadline time.Time) bool {
	if deadline.IsZero() {
		return false
	}
	now := time.Now()
	if !deadline.After(now) {
		// Already missed: no amount of preemption can save it, so shrinking
		// well-behaved tenants' running jobs for it would be pure harm — a
		// deadline-spamming tenant must not preempt its way through the
		// team with deadlines that were hopeless at submission.
		return false
	}
	horizon := 2 * time.Duration(s.lastRunNanos.Load())
	if horizon < time.Millisecond {
		horizon = time.Millisecond
	}
	return !deadline.After(now.Add(horizon))
}

// SetTenantWeight registers (or re-weights) a tenant's fair-share weight;
// weights < 1 are clamped to 1. Safe for concurrent use; takes effect on
// the next admission.
func (s *Scheduler) SetTenantWeight(name string, weight int) {
	s.fq.setWeight(name, weight)
}

// grow distributes idle workers round-robin over the running elastic jobs
// that can still use them. Called only when no tenant waits for admission,
// so growth never starves a queued job.
func (s *Scheduler) grow(idle []int) []int {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	for len(idle) > 0 && len(s.growSet) > 0 {
		progressed := false
		for j := range s.growSet {
			if len(idle) == 0 {
				break
			}
			sub, ok := j.tryGrow()
			if !ok {
				continue
			}
			id := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			s.grown.Add(1)
			j.tr.Event(trace.EvGrown, s.cfg.shard, int(j.active.Load()), "")
			s.assign[id] <- assignment{job: j, sub: sub, elastic: true}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return idle
}

// lendTo distributes idle workers onto a sibling shard's running elastic job
// (the cross-shard analogue of grow). The workers execute foreign chunks but
// stay owned by this scheduler: they return to its free list when they leave
// the job, and they peel as soon as this shard has tenants of its own.
func (s *Scheduler) lendTo(j *Job, idle []int) []int {
	for len(idle) > 0 {
		sub, ok := j.tryGrow()
		if !ok {
			break
		}
		id := idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		s.lent.Add(1)
		j.tr.Event(trace.EvLent, s.cfg.shard, int(j.active.Load()), "")
		s.assign[id] <- assignment{job: j, sub: sub, elastic: true}
	}
	return idle
}

// stealQueued removes one job from this scheduler's fair queue on behalf of
// a sibling shard, without admitting it. It returns nil when the queue is
// empty. The pop goes through the same weighted-fair policy as local
// admission, so steals respect tenant weights and priorities: the thief
// takes exactly the job the victim would have admitted next. The caller
// owns the returned job and must migrate it (see Sharded.stealFor); the job
// is still in the Pending state and still counted in this scheduler's
// depth. Jobs still in the intake channel are invisible to steals until the
// victim's dispatcher drains them, which it does ahead of any blocking
// wait.
func (s *Scheduler) stealQueued() *Job {
	return s.fq.pop()
}

// lendableJob returns a running elastic job that still has unclaimed work,
// for a sibling shard to lend workers to, or nil. Entries that completed or
// drained their cursor are dropped lazily.
func (s *Scheduler) lendableJob() *Job {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	for j := range s.growSet {
		if j.State() != Running || j.cursor.Remaining() == 0 {
			delete(s.growSet, j)
			s.growables.Store(int32(len(s.growSet)))
			continue
		}
		return j
	}
	return nil
}

// worker is the body of every team member: park in the mailbox receive until
// someone (the dispatcher or a fast-path submitter) hands over an
// assignment, execute it, park again. The channel receive is the futex-style
// semaphore: a parked worker is a goroutine in gopark, and the hand-off send
// goreadies it directly.
func (s *Scheduler) worker(id int) {
	for a := range s.assign[id] {
		s.busy.Add(1)
		a.run(s)
		s.busy.Add(-1)
		s.parkWorker(id)
	}
}

// recordCompletion updates the aggregate statistics; called by the
// completing worker exactly once per job.
func (s *Scheduler) recordCompletion(j *Job) {
	now := time.Now()
	acct := s.fq.account(j.tenant)
	if j.req.N > 0 {
		// A recovered job charges only the iterations it actually executed in
		// this process — the watermark inherited from the checkpoint ran (and
		// was counted) before the crash.
		n := int64(j.req.N - j.ckptSeed)
		s.itersDone.Add(n)
		acct.iters.Add(n)
	}
	// Run time spans every stint: the current one plus any accumulated before
	// suspensions. Wait is everything else the job spent between submit and
	// now — minus suspended wall time, which was the caller's pause, not queue
	// starvation, and must not burn SLO budget.
	run := now.Sub(j.started) + time.Duration(j.ranNanos.Load())
	wait := now.Sub(j.submitted) - run - time.Duration(j.suspendedNanos.Load())
	if wait < 0 {
		wait = 0
	}
	hadDeadline := !j.deadline.IsZero()
	missed := hadDeadline && now.After(j.deadline)
	// EWMA of recent run times (new = 3/4 old + 1/4 current) for the
	// deadline-risk horizon; last-writer-wins staleness is acceptable.
	s.lastRunNanos.Store(s.lastRunNanos.Load() - s.lastRunNanos.Load()/4 + int64(run)/4)
	// Total latency excludes suspended time for the same reason wait does.
	recordLedger(&s.led, wait+run, run, hadDeadline, missed)
	recordLedger(&acct.led, wait, run, hadDeadline, missed)
	if hadDeadline {
		// Feed the tenant's circuit breaker (no-op unless armed): the miss
		// EWMA drives open/half-open/close transitions (see admission.go).
		s.cfg.admission.recordOutcome(j.tenant, missed, now)
	}
	if j.tr != nil {
		detail := ""
		if missed {
			detail = "deadline_missed"
		}
		j.tr.Event(trace.EvJoined, s.cfg.shard, int(j.workers.Load()), detail)
	}
	// The job is done: its snapshot must not be recovered.
	s.deleteCheckpoint(j)
}

// Close drains the admission queue, waits for every in-flight job and
// releases the workers. Jobs submitted before Close complete normally —
// including blocked dependents, which are drained before the queue closes
// (provided their upstreams belong to this pool or complete independently);
// Submit fails with ErrClosed afterwards. Close is idempotent and safe to
// call from several goroutines at once: every call returns only after the
// teardown has fully completed, whichever call performed it.
func (s *Scheduler) Close() {
	s.submitMu.Lock()
	if s.closed {
		s.submitMu.Unlock()
		<-s.closeDone
		return
	}
	s.closed = true
	s.submitMu.Unlock()
	// Suspended jobs cancel first (keeping their checkpoints: shutting down
	// with suspended jobs is suspend-to-disk, the next process recovers them
	// from the store). This must precede the blocked drain — a Blocked
	// dependent of a Suspended upstream only unblocks when the upstream turns
	// terminal, and nothing will resume it after closed. The closed flag set
	// under suspendMu hands jobs still quiescing toward the park to
	// noteSuspended's own cancel path, so none can slip past the sweep.
	s.suspendMu.Lock()
	s.suspendClosed = true
	sweep := make([]*Job, 0, len(s.suspendSet))
	for j := range s.suspendSet {
		sweep = append(sweep, j)
	}
	clear(s.suspendSet)
	s.suspendMu.Unlock()
	for _, j := range sweep {
		j.cancel(Suspended, nil, shutdownCancel)
	}
	// Blocked jobs drain next: their upstreams are already queued or
	// running (here or on a sibling shard), so every one of them releases
	// or cancels in bounded time; every retirement broadcasts the gate
	// condition, so the wait is event-driven. blockedHeld reaching zero
	// implies the blocked gauge is zero too (slots retire strictly after
	// the gauge decrement). Only then may the release window and the queue
	// close — enqueue finishes its push under the read lock, so after the
	// write-lock barrier below no release can race the close.
	s.gateMu.Lock()
	for s.blockedHeld > 0 {
		s.gateCond.Wait()
	}
	s.gateMu.Unlock()
	s.submitMu.Lock()
	s.releaseClosed = true
	s.submitMu.Unlock()
	// Both intake windows are shut: tell the dispatcher to drain and exit.
	s.intakeClosed.Store(true)
	s.wake()
	<-s.dispatcherDone
	// Wait for the whole team to park: once all P are on the idle stack, no
	// assignment is in flight and the mailboxes can close.
	s.idleMu.Lock()
	for len(s.idleIDs) < s.p {
		s.idleCond.Wait()
	}
	s.idleIDs = s.idleIDs[:0]
	s.idleMu.Unlock()
	for _, ch := range s.assign {
		close(ch)
	}
	s.team.Wait()
	close(s.closeDone)
}

// Stats is a snapshot of the scheduler's aggregate state. The JSON field
// names are stable (cmd/loopd serves this struct); durations marshal as
// nanoseconds, Go's time.Duration encoding.
type Stats struct {
	Workers     int   `json:"workers"`
	BusyWorkers int   `json:"busy_workers"`
	QueueDepth  int   `json:"queue_depth"`
	Running     int   `json:"running"`
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Canceled    int64 `json:"canceled"`
	// IterationsDone is the total number of loop iterations completed.
	IterationsDone int64 `json:"iterations_done"`
	// Grown counts workers that joined an already-running job (elastic
	// sub-team growth); Peeled counts workers that left a running job early
	// to serve waiting tenants (elastic shrink).
	Grown  int64 `json:"grown_total"`
	Peeled int64 `json:"peeled_total"`
	// Stolen counts whole queued jobs this scheduler pulled from sibling
	// shards; Lent counts workers this scheduler lent to sibling shards'
	// running elastic jobs. Both are zero outside a Sharded pool.
	Stolen int64 `json:"stolen_total"`
	Lent   int64 `json:"lent_total"`
	// BlockedDepth is the number of jobs currently parked in the Blocked
	// state waiting for dependencies — deliberately not part of QueueDepth,
	// which only counts jobs eligible for admission. Released counts blocked
	// jobs whose last upstream's join wave moved them into an admission
	// queue; DepCanceled counts blocked jobs canceled by upstream
	// cancellation propagating down the dependency graph (these also count
	// in Canceled).
	BlockedDepth int64 `json:"blocked_depth"`
	Released     int64 `json:"released_total"`
	DepCanceled  int64 `json:"dep_canceled_total"`
	// Preempted counts preemption decisions: shrink targets the dispatcher
	// posted against running elastic jobs to serve waiting tenants.
	// DeadlineMissed counts jobs that completed after their requested
	// deadline.
	Preempted      int64 `json:"preempted_total"`
	DeadlineMissed int64 `json:"deadline_missed_total"`
	// ShedTotal counts submissions rejected by admission control (see
	// admission.go): the sum of InfeasibleTotal (deadline unmeetable at
	// submit), BackloggedTotal (queue-slot wait expired or NoWait on a full
	// queue) and breaker rejections. On a Sharded pool's merged totals the
	// breaker sheds — which happen before routing and belong to no shard —
	// are included here and absent from the per-shard snapshots.
	ShedTotal       int64 `json:"shed_total"`
	InfeasibleTotal int64 `json:"infeasible_total"`
	BackloggedTotal int64 `json:"backlogged_total"`
	// SuspendedDepth is the number of jobs currently parked in the Suspended
	// state — like BlockedDepth, outside QueueDepth. SuspendedTotal and
	// ResumedTotal count lifecycle transitions into and out of it.
	// CheckpointWrites and CheckpointFailures count snapshot puts against the
	// configured store (both zero without one).
	SuspendedDepth     int64 `json:"suspended_depth"`
	SuspendedTotal     int64 `json:"suspended_total"`
	ResumedTotal       int64 `json:"resumed_total"`
	CheckpointWrites   int64 `json:"checkpoint_writes_total"`
	CheckpointFailures int64 `json:"checkpoint_failures_total"`
	// Tenants is the per-tenant accounting: weights, queued depth, served
	// jobs/iterations, preemptions, deadline misses and cumulative
	// admission-wait time, keyed by tenant name (jobs submitted without a
	// tenant are charged to "default"). Nil until the first submission or
	// weight registration.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Latency quantiles (submission to completion) over the recent window of
	// the last 1024 to 2047 completions (all of them before the 1024th), each
	// within stats.RelErr (6.25%) of the exact quantile of that window.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// Run quantiles (admission to completion) over the recent window.
	RunP50 time.Duration `json:"run_p50_ns"`
	RunP95 time.Duration `json:"run_p95_ns"`
	RunP99 time.Duration `json:"run_p99_ns"`
	// LatencySamples is the number of completions in the window.
	LatencySamples int `json:"latency_samples"`
	// LatencySumSeconds and RunSumSeconds are cumulative (not windowed)
	// totals over all completions: the _sum series of Latency and Run.
	LatencySumSeconds float64 `json:"latency_sum_seconds"`
	RunSumSeconds     float64 `json:"run_sum_seconds"`
	// Latency and Run are the cumulative histograms over all completions
	// (loopd exports them as Prometheus histograms); win is the window the
	// quantiles above come from. A Sharded pool adds both up across shards.
	Latency stats.Snapshot `json:"-"`
	Run     stats.Snapshot `json:"-"`
	win     ledgerSnap
}

// setLatency fills Completed and the latency fields from the cumulative
// histograms and a window of them.
func (st *Stats) setLatency(lat, run stats.Snapshot, win ledgerSnap) {
	st.Latency, st.Run, st.win = lat, run, win
	st.Completed = int64(lat.Count())
	st.LatencySamples = int(win.lat.Count())
	st.LatencySumSeconds, st.RunSumSeconds = lat.Sum().Seconds(), run.Sum().Seconds()
	st.LatencyP50, st.LatencyP95, st.LatencyP99 = win.lat.Quantile(0.5), win.lat.Quantile(0.95), win.lat.Quantile(0.99)
	st.RunP50, st.RunP95, st.RunP99 = win.run.Quantile(0.5), win.run.Quantile(0.95), win.run.Quantile(0.99)
}

// Stats returns a snapshot of queue depth, occupancy and latency
// percentiles.
func (s *Scheduler) Stats() Stats {
	life, win := s.led.Load()
	st := Stats{
		Workers:            s.p,
		BusyWorkers:        int(s.busy.Load()),
		QueueDepth:         int(s.depth.Load()),
		Running:            int(s.running.Load()),
		Submitted:          s.submitted.Load(),
		Canceled:           s.canceled.Load(),
		IterationsDone:     s.itersDone.Load(),
		Grown:              s.grown.Load(),
		Peeled:             s.peeled.Load(),
		Stolen:             s.stolen.Load(),
		Lent:               s.lent.Load(),
		BlockedDepth:       s.blocked.Load(),
		Released:           s.released.Load(),
		DepCanceled:        s.depCanceled.Load(),
		Preempted:          s.preempted.Load(),
		DeadlineMissed:     life.deadlineMissed,
		ShedTotal:          s.infeasible.Load() + s.backlogged.Load(),
		InfeasibleTotal:    s.infeasible.Load(),
		BackloggedTotal:    s.backlogged.Load(),
		SuspendedDepth:     s.suspended.Load(),
		SuspendedTotal:     s.suspendedTotal.Load(),
		ResumedTotal:       s.resumedTotal.Load(),
		CheckpointWrites:   s.ckptWrites.Load(),
		CheckpointFailures: s.ckptFails.Load(),
		Tenants:            s.fq.tenantsSnapshot(s.cfg.SLOTarget),
	}
	st.setLatency(life.lat, life.run, win)
	if s.cfg.pool == nil {
		// Standalone: this scheduler IS the pool, so merge the admission
		// layer's per-tenant shed counters and breaker states here. Shards
		// of a Sharded pool leave it to the pool-wide snapshot — the state
		// is shared and would otherwise be counted once per shard.
		st.Tenants = s.cfg.admission.fillTenantStats(st.Tenants)
		st.ShedTotal += s.cfg.admission.breakerShed.Load()
	}
	return st
}
