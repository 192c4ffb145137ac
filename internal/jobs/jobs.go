// Package jobs multiplexes many concurrent parallel-loop jobs onto one
// persistent worker team: the multi-tenant counterpart of the single-master
// fine-grain scheduler in internal/core.
//
// The paper's half-barrier insight — workers are dedicated and idle between
// loops, so a loop needs only one release wave at the fork and one join wave
// at the completion — is applied here *across* jobs instead of within one
// master's loop stream. Each admitted job runs on a sub-team of k <= P
// workers: the dispatcher hands the job to k idle workers in a single release
// wave (a channel send per worker; the dispatcher never waits for the
// sub-team to assemble), and the sub-team completes through a join wave over
// exactly the workers that participated. No job ever pays a full barrier, and
// jobs coordinate only through the admission queue: on the execution hot path
// a worker's only shared-state operation is one atomic chunk claim.
//
// # Elastic sub-teams
//
// Unlike the paper's dedicated teams, sub-teams here are *elastic*:
//
//   - Within a job, workers self-schedule grain-sized chunks from a per-job
//     atomic cursor instead of executing one static block each, so a
//     sub-worker that finishes early takes more chunks instead of idling
//     behind a straggler (skewed bodies no longer leave k-1 workers idle).
//   - A sub-team can grow after admission: an idle worker joins a running
//     job that still has unclaimed work, bounded by the job's worker caps.
//   - A sub-team shrinks under queue pressure: a worker that finishes a
//     chunk while other tenants wait in the admission queue peels off (never
//     the last participant) and returns to the dispatcher, which re-molds it
//     onto a waiting job. This fixes the convoy effect — a lone job that
//     grabbed all P workers yields them chunk-by-chunk to a later burst.
//
// The join stays a half-barrier-shaped wave over the workers that actually
// participated: leaving workers fold their partial (for reducing jobs) and
// decrement the participant count without waiting for anyone; the last one
// out completes the job. Every job runs this way. A reduction whose Combine
// is declared Commutative folds one partial per participant stint, in
// arrival order. Any other reduction is ordered: each chunk's partial,
// started from Identity, lands in a per-job slot indexed by the chunk's
// position in the space, and the last participant out folds the slots in
// index order. An ordered result therefore depends only on N and the chunk
// size — not on the sub-team size, on timing, on steals or on a suspension —
// and it is the fold a sequential loop over the same chunks computes. The
// chunk is fixed at the job's first admission (a job recovered from a
// checkpoint picks it anew) and coarsened, if need be, to at most
// orderedSlotsPerWorker chunks per worker the job could run on, so the
// slots stay O(P).
//
// # Weighted-fair multi-tenancy
//
// Admission is arbitrated by a policy layer (see fair.go) instead of a
// single FIFO: per-tenant accounts with weights are served by stride-based
// weighted fair queuing, job priorities form strict admission classes with
// an earliest-deadline-first tie-break, and the dispatcher preempts
// over-share or lower-priority running jobs at chunk granularity by asking
// their elastic sub-teams to shrink between chunks (never below one
// participant). The policy runs only on the per-job admission path; the
// per-chunk execution path stays a single atomic claim.
//
// # Job lifecycle
//
//	submit ─┬─► Blocked ──release──► Pending ──admit──► Running ──complete──► Done
//	        ├─► Pending               │ ▲                 │
//	        └─► Done (inline) suspend │ │ resume          │ park
//	                                  ▼ │                 │
//	                                Suspended ◄───────────┘
//	cancel: Pending | Blocked | Suspended ──► Canceled
//	steal:  Pending ──► stealing* ──► Pending, on the thief shard
//
// Only lifecycle.go writes a job's state, one function per edge, and that
// function fixes the order of the edge's side effects:
//
//   - admit (Scheduler.admit; admitDirect on the submit fast path): one CAS
//     (a store on the fast path: the job is not yet published); queue slot;
//     release wave; grow registry.
//   - complete (Job.complete): one store; grow registry and running gauge;
//     statistics, EvJoined, checkpoint delete; dependents; waiters.
//   - cancel (Job.cancel; Job.Cancel takes a queued job's entry out first):
//     CAS, error and dependent snapshot under depMu;
//     gauges, checkpoint delete (kept by Close's sweep); EvCanceled;
//     dependents; waiters.
//   - block (Job.block): store; EvBlocked; upstream registration, which may
//     release or cancel the job at once.
//   - inline (Scheduler.completeInline), a loop with N <= 0 at submit or
//     release: store (CAS from Blocked, with the blocked gauge and
//     EvReleased); EvAdmitted, EvDispatched; complete.
//   - release, resume (Scheduler.enqueue): depth; CAS; the home's blocked or
//     suspended gauge; EvReleased or EvResumed; EvAdmitted; queue push.
//   - suspend (Job.suspendQueued, then noteSuspended): CAS into suspending*;
//     queue slot; gauges, EvSuspended, checkpoint; registry entry and state
//     together under suspendMu.
//   - park (Job.parkSuspended, by the last quiescing participant): grow
//     registry and running gauge; then as suspend.
//   - steal (Sharded.migrate): CAS into stealing*; queue slot and depth move
//     to the thief; store; EvStolen.
//   - recycle (Scheduler.freeJob): a Released terminal job becomes a fresh
//     Pending generation.
//
// * stealing and suspending are transient: State reports them as Pending,
// and each excludes Cancel while its edge moves the job's accounting. Edges
// into Done and Canceled wake waiters last, so a returning Wait finds the
// gauges, the trace and the checkpoint settled.
//
// An event a client can observe is emitted only after the state it
// announces is visible to that client's next request. In particular a
// traced job is addressable before it can be dispatched: submission makes
// the job its trace's owner (trace.Tracer.Owner returns it by job id) before
// the first event that follows a queue push, a direct admission or a block,
// and the job stays findable until its terminal event. A job whose Submit
// is still waiting for a queue slot is not yet addressable.
package jobs

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/iterspace"
	"loopsched/internal/sched"
	"loopsched/internal/trace"
)

// Errors returned by Job.Wait and Submit.
var (
	// ErrCanceled reports that the job was canceled before it started —
	// explicitly through Cancel, or by propagation from a canceled upstream
	// dependency (errors.Is matches either way; a propagated cancellation
	// also wraps the upstream's error).
	ErrCanceled = errors.New("jobs: job canceled")
	// ErrClosed reports that the scheduler was closed before the job could be
	// submitted.
	ErrClosed = errors.New("jobs: scheduler closed")
	// ErrCycle reports that Request.After closes a dependency cycle. Cycles
	// cannot be built through well-typed use (After only accepts handles of
	// already-submitted jobs, so every edge points backwards in submission
	// time), but Submit verifies the upstream graph anyway.
	ErrCycle = errors.New("jobs: dependency cycle")
	// ErrReleased reports that a Job handle was used after Release returned
	// its runtime objects to the scheduler's freelist. Wait detects the reuse
	// through the job's generation counter; the result of a released job is
	// gone by contract.
	ErrReleased = errors.New("jobs: job handle released")
)

// State is the lifecycle state of a Job.
type State int32

// Job states.
const (
	// Pending: submitted, waiting in the admission queue.
	Pending State = iota
	// Running: admitted; a sub-team is executing the loop.
	Running
	// Done: completed (result and error are final).
	Done
	// Canceled: canceled before admission; the loop never ran.
	Canceled
	// Blocked: submitted with unfinished dependencies (Request.After); the
	// job sits outside every admission queue — it does not count toward the
	// queue depth fair shares are computed from, and it can never be stolen —
	// until its last upstream's join wave releases it into Pending.
	Blocked
	// Suspended: taken out of service by Suspend with its progress captured
	// (the cursor watermark and, for commutative reductions, the partial
	// accumulator). Like Blocked it sits outside every admission queue —
	// invisible to fair-share sizing, unstealable — until Resume re-admits it
	// from the watermark, or crash recovery re-submits it from the checkpoint
	// store under the same job id.
	Suspended
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Canceled:
		return "canceled"
	case Blocked:
		return "blocked"
	case Suspended:
		return "suspended"
	default:
		return "unknown"
	}
}

// Request describes one parallel-loop job. Exactly one of Body and RBody
// must be set.
type Request struct {
	// N is the iteration space [0, N). Non-positive N completes immediately.
	N int
	// Body is a plain loop body. The worker index it receives is the
	// *sub-team* index: a dense id in [0, K) where K never exceeds the job's
	// worker caps (and never exceeds the team size P). A sub-worker may be
	// called with several disjoint chunks, in increasing iteration order per
	// sub-worker.
	Body sched.Body
	// RBody, Identity and Combine describe a scalar reducing loop: partials
	// start at Identity and are folded with Combine, which must be
	// associative. Unless Commutative is set, each chunk's partial is kept
	// and the join wave folds them in iteration order (non-commutative safe).
	RBody    sched.ReduceBody
	Identity float64
	Combine  func(a, b float64) float64
	// Commutative declares Combine commutative (and Identity a true
	// identity), letting each participant fold all its chunks into one
	// partial and the join wave fold those in arrival order. Leave it false
	// for ordered (non-commutative) reductions, whose result then depends
	// only on N and the chunk size.
	Commutative bool
	// MaxWorkers caps the sub-team size for this job; <= 0 means no cap
	// beyond the scheduler's own limits.
	MaxWorkers int
	// Grain is the self-scheduling chunk size in iterations — the smallest
	// unit of work worth one atomic claim. It is also the minimum number of
	// iterations per worker: the sub-team never exceeds ceil(N/Grain)
	// workers. <= 0 selects the scheduler's default heuristic.
	Grain int
	// Tenant names the account the job is charged to; the empty string
	// selects the shared "default" account. Tenants with registered weights
	// (Config.TenantWeights, Scheduler.SetTenantWeight) are served in
	// proportion to those weights under saturation; unknown tenants are
	// created on first use with weight 1.
	Tenant string
	// Priority orders admission strictly: among waiting jobs, a higher
	// priority is always admitted first, across all tenants (weights
	// arbitrate only within a priority class). The dispatcher also shrinks
	// running lower-priority elastic jobs, chunk by chunk, to free workers
	// for a waiting higher-priority job. 0 is the default class; negative
	// priorities yield to everything else.
	Priority int
	// Deadline is the completion deadline used as the admission tie-break
	// within a priority class (earliest deadline first) and as the
	// preemption trigger when the deadline is at risk. The zero time means
	// no deadline. A missed deadline does not fail the job; it increments
	// the scheduler's and tenant's deadline-missed counters.
	Deadline time.Time
	// After lists jobs that must complete before this one may start. The job
	// is held in the Blocked state — outside every admission queue, invisible
	// to fair-share sizing and to cross-shard stealing — and the last
	// upstream's join wave releases it into Pending. In a Sharded pool the
	// released job is admitted to the least-loaded shard at release time. A
	// canceled upstream cancels the job too: its Wait returns an error
	// matching ErrCanceled that wraps the upstream's error. Upstreams may
	// belong to any scheduler (completion is all that is observed), entries
	// must be non-nil, and the edges must stay acyclic (Submit returns
	// ErrCycle otherwise).
	After []*Job
	// NoWait makes Submit fail fast with ErrBacklogged when the admission
	// queue is full instead of blocking for a slot (see admission.go): the
	// per-request analogue of Config.MaxWait with a zero wait. It only
	// affects the slot wait; SubmitBatch ignores it (batches are bounded by
	// Config.MaxWait as a whole).
	NoWait bool
	// Checkpoint, when non-nil and the scheduler has a Config.Checkpoints
	// store, makes the job durable: a progress snapshot is stored at
	// admission and at every suspension and deleted at completion or
	// cancellation. The caller fills the identity fields (Workload, Params)
	// so a restart can rebuild the request by name; a snapshot recovered
	// from a store (JobID != 0) keeps its original job id, and a reducing
	// job's snapshot with Cursor > 0 resumes from that watermark with its
	// partial Acc instead of iteration 0 (a plain Body restarts from 0: its
	// effects before the snapshot are not in it).
	// Requires a Tracer (job ids come from it); SubmitBatch rejects it.
	Checkpoint *Checkpoint
	// Label tags the job in statistics (for example the workload name).
	Label string
}

// Job is one submitted parallel loop. Its methods are safe for concurrent
// use.
//
// Jobs are pooled: Submit draws them from the scheduler's freelist and an
// explicit owner-side Release (optional — unreleased jobs are simply
// garbage-collected) recycles them. The generation counter arbitrates
// recycled handles: every field of a recycled job belongs to its new
// generation, and a late Wait on a stale handle reports ErrReleased instead
// of another job's result.
type Job struct {
	req   Request
	state atomic.Int32

	// gen is bumped first thing at recycle; Wait/Trace snapshot it on entry
	// and re-check after reading the terminal fields (a seqlock in miniature)
	// so a handle held across Release can never observe the next
	// generation's data as its own.
	gen atomic.Uint64

	// waitMu guards the terminal flag, the lazily created done channel and
	// (by the publication order below) result/err: the completing worker (or
	// Cancel) stores result/err strictly before raising terminal, and waiters
	// read them strictly after observing it.
	waitMu   sync.Mutex
	waitCond sync.Cond
	terminal bool
	lazyDone chan struct{}

	result float64
	err    error

	// workers is the peak sub-team size, atomic because submitters may poll
	// it while the job runs.
	workers atomic.Int32

	// cursor hands out grain-sized chunks of [0, N); one atomic add per
	// claim is the hot path's only shared-state operation. Padded: every
	// participant hammers the claim cursor, and the fields after it (active,
	// the slot stack) are written on the grow/peel/leave paths — false
	// sharing here taxes every chunk claim.
	cursor iterspace.Chunker
	_      [104]byte
	// active counts the participants currently executing chunks. Growth
	// CASes it up from >= 1 only; the decrement to 0 completes the job, so a
	// completed job can never be resurrected. On its own line: grow/lend CAS
	// storms must not invalidate the cursor's line.
	active atomic.Int32
	_      [124]byte
	// slotMu guards freeSubs, the stack of free dense sub-worker ids in
	// [0, maxK); the backing array is recycled with the job.
	slotMu   sync.Mutex
	freeSubs []int
	maxK     int
	// redMu guards acc, the shared accumulator commutative reductions fold
	// into at leave time (once per participant, not per chunk). An ordered
	// reduction's last participant folds slots into acc instead.
	redMu sync.Mutex
	acc   float64
	// slots holds an ordered reduction's chunk partials for the current
	// stint, indexed by (chunk begin - resumeFrom) / chunk; empty for other
	// jobs. The backing array is recycled with the job.
	slots []float64

	// Admission-policy state: the normalized tenant account name, the
	// priority class and deadline copied out of the request, and the
	// fair-queue submission sequence (assigned under the queue lock).
	tenant   string
	prio     int
	deadline time.Time
	seq      uint64
	// shrinkTo is the dispatcher's preemption request: a participant count
	// the running elastic job should shrink toward, observed by participants
	// between chunks. 0 means no constraint. Posted only by the job's own
	// dispatcher; cleared when its queue drains.
	shrinkTo atomic.Int32

	// Suspend/checkpoint state. suspendReq asks running participants to
	// quiesce at their next chunk boundary (checked alongside shrinkTo; the
	// no-suspend hot path pays one relaxed load). The remaining fields are
	// written only at quiescent points — submit, the suspended park, resume —
	// and published by the state transitions around them.
	suspendReq     atomic.Bool
	suspendedAt    atomic.Int64 // unix nanos of the park, for wait accounting
	suspendedNanos atomic.Int64 // cumulative suspended wall time
	ranNanos       atomic.Int64 // run time accumulated over earlier stints
	resumeFrom     int          // cursor watermark the next dispatch starts at
	resumeAcc      float64      // partial reduction folded over [0, resumeFrom)
	chunk          int          // chunk size fixed at the first admission
	ckptSeed       int          // watermark inherited at submit (crash recovery)
	ckpt           *Checkpoint  // store snapshot template; nil = not durable

	submitted time.Time
	started   time.Time

	// s is the scheduler currently responsible for the job: the admitting
	// shard's. It is re-pointed when a queued job is stolen and when a
	// blocked job is released onto another shard, always before the job
	// becomes observable in the new state.
	s *Scheduler

	// Dependency (DAG) state. after and acyclic are set at submit and
	// immutable afterwards; home is the submitting scheduler (the blocked
	// accounting never moves, unlike s); pool routes the release in a
	// sharded runtime (nil for standalone schedulers and pinned jobs).
	after   []*Job
	acyclic bool
	home    *Scheduler
	pool    *Sharded
	// tr is the job's lifecycle trace, set at submit when the scheduler has a
	// Tracer and nil otherwise; every hook is nil-safe, so untraced jobs pay
	// one nil check per transition.
	tr *trace.JobTrace

	// waits counts upstreams not yet terminal, plus one registration
	// sentinel so a fast upstream cannot release the job mid-registration.
	waits atomic.Int32
	// depMu guards dependents (blocked jobs waiting on this one, drained at
	// completion or cancellation) and depErr (the first failed upstream).
	depMu      sync.Mutex
	dependents []*Job
	depErr     error
	// upstreamHeld marks a job its owner canceled while Blocked: upstreams
	// still list it as a dependent and touch it when they turn terminal, so
	// Release must not recycle it. Written before finish publishes the
	// terminal state, read by Release under waitMu.
	upstreamHeld bool
}

// State returns the job's current state.
func (j *Job) State() State {
	s := j.state.Load()
	if s == stateStealing || s == stateSuspending {
		return Pending
	}
	return State(s)
}

// Done returns a channel closed when the job completes or is canceled. The
// channel is created on first call (Wait does not need it), so jobs that are
// only ever Waited on stay allocation-free.
func (j *Job) Done() <-chan struct{} {
	j.waitMu.Lock()
	defer j.waitMu.Unlock()
	if j.lazyDone == nil {
		j.lazyDone = make(chan struct{})
		if j.terminal {
			close(j.lazyDone)
		}
	}
	return j.lazyDone
}

// finish publishes the terminal transition: result/err are already stored,
// so raise the flag, close the lazily created done channel if anyone asked
// for one, and wake the waiters.
func (j *Job) finish() {
	j.waitMu.Lock()
	j.terminal = true
	if j.lazyDone != nil {
		close(j.lazyDone)
	}
	j.waitMu.Unlock()
	j.waitCond.Broadcast()
}

// Wait blocks until the job completes and returns the reduction result (0
// for non-reducing jobs) and any error (ErrCanceled if the job was canceled
// before it started, ErrReleased if the handle was Released concurrently).
func (j *Job) Wait() (float64, error) {
	gen := j.gen.Load()
	j.waitMu.Lock()
	for !j.terminal {
		if j.gen.Load() != gen {
			j.waitMu.Unlock()
			return 0, ErrReleased
		}
		j.waitCond.Wait()
	}
	result, err := j.result, j.err
	j.waitMu.Unlock()
	if j.gen.Load() != gen {
		// The handle's owner Released (and possibly resubmitted) the job
		// while this stale waiter was between the terminal check and the
		// field reads: the values above may belong to the next generation.
		return 0, ErrReleased
	}
	return result, err
}

// Release returns the job's runtime objects (the Job itself, its partials
// and slot arrays, its cached barrier) to its home scheduler's freelist for
// reuse by a later Submit. It is the owner side of the pooled-object
// contract: call it only once, only after the job is terminal (Wait/Done
// returned), and do not touch the handle — nor pass it to After — afterwards.
// A non-terminal or repeated Release is a safe no-op; concurrent stale
// Wait/Trace callers observe ErrReleased/nil via the generation counter
// rather than another job's data. Releasing is optional: unreleased jobs are
// garbage-collected as before.
func (j *Job) Release() {
	// Only terminal jobs nothing else still references are recyclable:
	// completed ones and canceled ones — a queued job leaves its queue when
	// canceled — except a job canceled while Blocked, whose upstreams still
	// list it. Such a handle simply stays garbage-collected.
	if st := State(j.state.Load()); st != Done && st != Canceled {
		return
	}
	j.waitMu.Lock()
	ok := j.terminal && !j.upstreamHeld
	if ok {
		// Claim the release under waitMu so two racing Release calls cannot
		// both recycle (terminal flips false for the next generation only
		// inside freeJob, before the freelist push publishes the job).
		j.terminal = false
	}
	j.waitMu.Unlock()
	if !ok {
		return
	}
	if home := j.home; home != nil {
		home.freeJob(j)
	}
}

// Cancel cancels the job if it has not been admitted yet and reports whether
// it did. A running or completed job is not interrupted: cancellation is an
// admission-queue operation, the execution hot path is never arbitrated. A
// queued job leaves its queue at once, so a canceled job pins nothing there
// and can be Released right away. Canceling a job also cancels its
// not-yet-started dependents: their Wait errors match ErrCanceled and wrap
// this job's error.
func (j *Job) Cancel() bool {
	for {
		switch st := j.state.Load(); st {
		case int32(Blocked), int32(Suspended):
			if j.cancel(State(st), nil, "") {
				return true
			}
			// Released or resumed meanwhile: re-read the state.
		case int32(Pending):
			if j.home == nil {
				return false
			}
			// Take the queue entry out first, as Suspend does: whoever
			// removes the entry is the one side that leaves the queue for
			// the job.
			if j.dequeue() != nil {
				return j.cancel(Pending, nil, "")
			}
			// Pending but in no queue: mid-pop, mid-steal or mid-push. The
			// other side's next step ends the window.
			runtime.Gosched()
		case stateStealing, stateSuspending:
			runtime.Gosched()
		default:
			return false
		}
	}
}

// Suspend takes the job out of service with its progress captured, so it can
// be resumed later — in this process via Resume, or (with a checkpoint store
// configured) by a later process from the store. A Pending job is removed
// from its admission queue immediately; a Running job is asked to quiesce
// and parks in the Suspended state once every participant has finished its
// current chunk (poll State for the park), or completes if no chunk is left.
// An ordered reduction resumes to the same result bit for bit: its partials
// are folded in chunk order however the chunks were split between stints.
//
// Suspend reports whether the suspension is in effect or accepted; false
// means the job was blocked, terminal, or canceled in the window. Like
// Blocked, a Suspended job sits outside every queue: it holds no queue slot,
// does not count toward the fair-share depth, and cannot be stolen.
func (j *Job) Suspend() bool {
	for {
		switch st := j.state.Load(); st {
		case int32(Pending):
			if j.home == nil {
				return false
			}
			// Take the queue entry out FIRST: the dispatcher and stealing
			// siblings always pop before their state CAS, so owning the entry
			// leaves Cancel as the only remaining contender for the state.
			s := j.dequeue()
			if s == nil {
				// Pending but in no queue: mid-pop or mid-steal. Every such
				// window ends with another goroutine's next step (admit CAS,
				// steal re-push), so re-read the state and retry.
				runtime.Gosched()
				continue
			}
			return j.suspendQueued(s)
		case int32(Running):
			// Post the quiesce request; participants observe it between
			// chunks (see runElastic) and the last one out parks the job.
			// Idempotent: re-suspending while quiescing is accepted too.
			j.suspendReq.Store(true)
			return true
		case int32(Suspended):
			return true
		case stateStealing, stateSuspending:
			runtime.Gosched()
		default:
			return false
		}
	}
}

// dequeue takes a Pending job out of the admission queue holding it and
// returns that queue's scheduler, or nil when no queue holds the job right
// now. A job only ever sits in the queue of the scheduler it is accounted to
// (j.s), but j.s is not read here: a sibling shard stealing the job rewrites
// it concurrently. Trying every shard's queue under its own lock instead
// orders this call after whichever push put the job there. The shards come
// from the home's pool, not j.pool, which is nil for pinned jobs that a
// sibling may still steal.
func (j *Job) dequeue() *Scheduler {
	p := j.home.cfg.pool
	if p == nil {
		// A standalone scheduler never migrates its jobs: j.s is j.home.
		if j.home.fq.remove(j) {
			return j.home
		}
		return nil
	}
	for _, s := range p.shards {
		if s.fq.remove(j) {
			return s
		}
	}
	return nil
}

// Resume re-admits a Suspended job: it re-enters admission (on the
// least-loaded shard of a sharded pool, like a released dependent) and, once
// dispatched, claims chunks starting at the watermark its suspension
// captured, with the partial reduction restored. The job keeps its identity:
// same handle, same job id, one continuous trace. Resume reports false when
// the job is not currently Suspended (a quiescing Running job has not parked
// yet — poll State) or the pool is shutting down.
func (j *Job) Resume() bool {
	return State(j.state.Load()) == Suspended && j.reenter(Suspended)
}

// Workers returns the peak sub-team size the job has run on (0 until it is
// admitted). A sub-team may grow and shrink while running; the peak is the
// largest number of simultaneous participants.
func (j *Job) Workers() int { return int(j.workers.Load()) }

// Trace returns the job's lifecycle trace handle, or nil when the scheduler
// runs without a Tracer. The handle's ID is the job id used by the event
// stream and the trace collector.
func (j *Job) Trace() *trace.JobTrace { return j.tr }

// TraceID returns the tracer-assigned job id, stable across suspend/resume
// and crash recovery, or 0 when the scheduler runs without a Tracer.
func (j *Job) TraceID() uint64 {
	if j.tr == nil {
		return 0
	}
	return j.tr.ID
}

// Label returns the request's label.
func (j *Job) Label() string { return j.req.Label }

// initElastic prepares the execution state for a job about to be admitted on
// k initial workers, with the given chunk size and participant cap. Called
// by the admitting goroutine strictly before the release wave. The slot
// stack's and the ordered slots' backing arrays are reused across the job's
// generations.
//
// The whole re-initialization runs under slotMu, paired with tryGrow holding
// it across its claim: a sibling shard's lender that fetched this job before
// a suspend can call tryGrow concurrently with the resume's re-admission,
// and without the lock it could pop a slot from the dying generation's stack
// and then join the fresh one with a duplicate sub id (or read the cursor
// mid-rewrite). Under the lock it observes either the old generation (active
// is 0, the claim fails) or the fully initialized new one.
func (j *Job) initElastic(k, chunk, maxK int) {
	j.slotMu.Lock()
	j.chunk = chunk
	// A resumed (or checkpoint-recovered) job claims from its watermark: the
	// prefix [0, resumeFrom) already executed exactly once and its partial is
	// restored below, so nothing re-runs and nothing double-folds.
	j.cursor.InitAt(j.resumeFrom, j.req.N, chunk)
	j.maxK = maxK
	if cap(j.freeSubs) < maxK {
		j.freeSubs = make([]int, maxK)
	} else {
		j.freeSubs = j.freeSubs[:maxK]
	}
	for i := range j.freeSubs {
		// Stack order: the release wave pops dense ids 0, 1, 2, ...
		j.freeSubs[i] = maxK - 1 - i
	}
	j.slots = j.slots[:0]
	if j.ordered() {
		n := max(j.req.N-j.resumeFrom+chunk-1, 0) / chunk
		if cap(j.slots) < n {
			j.slots = make([]float64, n)
		} else {
			j.slots = j.slots[:n]
		}
	}
	if j.resumeFrom > 0 {
		j.acc = j.resumeAcc
	} else {
		j.acc = j.req.Identity
	}
	j.active.Store(int32(k))
	j.workers.Store(int32(k))
	j.slotMu.Unlock()
}

// popSlot takes a free dense sub-worker id, if one remains.
func (j *Job) popSlot() (int, bool) {
	j.slotMu.Lock()
	n := len(j.freeSubs)
	if n == 0 {
		j.slotMu.Unlock()
		return 0, false
	}
	sub := j.freeSubs[n-1]
	j.freeSubs = j.freeSubs[:n-1]
	j.slotMu.Unlock()
	return sub, true
}

// leave returns a participant's dense sub-worker id to the free stack and
// drops the participant count, reporting whether the caller was the last
// participant (which then completes or parks the job). The append never grows
// the backing array: at most maxK ids exist and initElastic sized the stack
// for all of them.
//
// Both steps hold slotMu, so every write to active after admission happens
// under it: a peeler holding slotMu sees a count no other participant can
// change, and nothing it does under the lock can overlap the job completing.
func (j *Job) leave(sub int) (last bool) {
	j.slotMu.Lock()
	j.freeSubs = append(j.freeSubs, sub)
	last = j.active.Add(-1) == 0
	j.slotMu.Unlock()
	return last
}

// ordered reports whether the job is an ordered reduction: one whose chunk
// partials are folded in iteration order because Combine may not commute.
func (j *Job) ordered() bool { return j.req.RBody != nil && !j.req.Commutative }

// foldSlots folds an ordered reduction's chunk partials into acc in index
// order — the chunks' order in the iteration space — and empties the slots.
// Only the last participant to leave calls it (on complete and on park):
// leave's slotMu orders every partial before the fold. For other jobs the
// slots are empty and this is a no-op.
func (j *Job) foldSlots() {
	for _, v := range j.slots {
		j.acc = j.req.Combine(j.acc, v)
	}
	j.slots = j.slots[:0]
}

// tryGrow attempts to reserve a participant slot on a running job.
// It returns the dense sub-worker id to use, or ok == false when the job is
// at its cap, has no unclaimed work, or is completing. The CAS loop joins
// only while at least one participant remains, so a completed job is never
// resurrected.
//
// The whole claim — prologue reads, slot pop, active CAS — holds slotMu,
// pairing with initElastic (see its comment): a caller whose job reference
// straddles a suspend/resume cycle either observes the parked generation
// (active 0 → the slot goes straight back onto the same stack) or the fully
// re-initialized one — never a slot popped from a dead generation's stack
// carried into the fresh one as a duplicate sub id.
func (j *Job) tryGrow() (sub int, ok bool) {
	j.slotMu.Lock()
	defer j.slotMu.Unlock()
	if j.suspendReq.Load() || j.cursor.Remaining() == 0 {
		return 0, false
	}
	n := len(j.freeSubs)
	if n == 0 {
		return 0, false // at the participant cap
	}
	sub = j.freeSubs[n-1]
	j.freeSubs = j.freeSubs[:n-1]
	for {
		a := j.active.Load()
		if a < 1 {
			// Completing, completed or parked; hand the slot back.
			j.freeSubs = append(j.freeSubs, sub)
			return 0, false
		}
		if j.active.CompareAndSwap(a, a+1) {
			// Atomic max: growers race here with participants' lock-free
			// leave path, so a stale check-then-store could lose the true
			// peak.
			for {
				w := j.workers.Load()
				if a+1 <= w || j.workers.CompareAndSwap(w, a+1) {
					break
				}
			}
			return sub, true
		}
	}
}

// tryPeel leaves the job between chunks only if another participant
// remains, so a job is never abandoned with unclaimed work. It reports
// whether the caller left.
//
// The whole peel holds slotMu, under which the participant count cannot
// change (see leave): the peeled event, the slot return and the decrement
// all happen while another participant still holds the job, so none of them
// can touch a job that completed — and was Released and recycled — in the
// meantime, and the event precedes the join.
func (j *Job) tryPeel(home *Scheduler, sub int) bool {
	j.slotMu.Lock()
	defer j.slotMu.Unlock()
	a := j.active.Load()
	if a <= 1 {
		return false
	}
	if home != nil {
		home.peeled.Add(1)
		j.tr.Event(trace.EvPeeled, home.cfg.shard, int(a-1), "")
	}
	j.freeSubs = append(j.freeSubs, sub)
	j.active.Store(a - 1)
	return true
}

// runElastic is one participant's share of a job: claim chunks from the
// cursor until the space is exhausted or queue pressure asks the worker to
// peel off. The leave protocol folds the participant's partial (or stores
// each chunk's, for an ordered reduction) *before* the active decrement, so
// the completing participant observes every fold.
//
// home is the scheduler the executing worker belongs to. It equals j.s except
// for a worker lent across shards, which peels when either side is under
// queue pressure: the job's home shard (the usual convoy fix) or its own
// shard (the lender wants its worker back for local tenants).
func (j *Job) runElastic(home *Scheduler, sub int) {
	reducing := j.req.RBody != nil
	// An ordered reduction's chunks each start from Identity and keep their
	// partial in the slot at their index within this stint.
	ordered := j.ordered()
	slots, start, chunk := j.slots, j.resumeFrom, j.chunk
	for {
		acc := j.req.Identity
		touched := false
		peel := false
		suspend := false
		for {
			// Quiesce for a suspension before claiming: a chunk, once
			// claimed, is always executed, so checking here keeps the claim
			// watermark exact — every claimed iteration has run when the
			// last participant parks the job.
			if j.suspendReq.Load() {
				suspend = true
				break
			}
			r, ok := j.cursor.Next()
			if !ok {
				break
			}
			switch {
			case !reducing:
				j.req.Body(sub, r.Begin, r.End)
			case ordered:
				slots[(r.Begin-start)/chunk] = j.req.RBody(sub, r.Begin, r.End, j.req.Identity)
			default:
				acc = j.req.RBody(sub, r.Begin, r.End, acc)
			}
			touched = true
			// Shrink between chunks — the chunk-granular preemption point.
			// Either the dispatcher posted a shrink target below the current
			// participant count (this job is over its tenant's weighted
			// share, or a higher-priority / deadline-risk job is waiting),
			// or tenants are waiting for admission (generic queue pressure).
			// The cheap loads keep the no-pressure hot path arbitration-free.
			if a := j.active.Load(); a > 1 {
				if t := j.shrinkTo.Load(); t > 0 && a > t {
					peel = true
					break
				}
				if j.underPressure(home) {
					peel = true
					break
				}
			}
		}
		if reducing && !ordered && touched {
			j.redMu.Lock()
			j.acc = j.req.Combine(j.acc, acc)
			j.redMu.Unlock()
		}
		if suspend {
			// Leave like an exhausted participant — partial folded, slot
			// returned — but the last one out parks the job Suspended with
			// its progress captured instead of completing it.
			if j.leave(sub) {
				j.parkSuspended()
			}
			return
		}
		if !peel {
			// Exhausted the cursor: leave for good. The slot goes back with
			// the decrement so a grower can reuse it; the grow CAS requires
			// active >= 1, so the last participant out still safely
			// completes the job.
			if j.leave(sub) {
				j.complete()
			}
			return
		}
		if j.tryPeel(home, sub) {
			return
		}
		// Lost the race to peel: every other participant left while this one
		// was folding, so it is now the job's only worker and must keep
		// going (with a fresh partial; arrival-order folding permits it, and
		// an ordered reduction keeps one partial per chunk anyway).
	}
}

// underPressure reports whether a tenant is waiting for admission on the
// worker's own shard or on the job's home shard.
func (j *Job) underPressure(home *Scheduler) bool {
	if home != nil && home.depth.Load() > 0 {
		return true
	}
	return home != j.s && j.s != nil && j.s.depth.Load() > 0
}

// assignment is the work descriptor handed to one worker: the job and its
// dense sub-team index. Assignments travel by value through the per-worker
// mailbox channels — two words, so handing one off allocates nothing.
type assignment struct {
	job *Job
	sub int
}

// run executes this worker's share of the job and participates in the join
// wave. It is called on a worker of scheduler home — normally the job's own
// scheduler, but a shard lending workers cross-shard executes foreign
// assignments too.
func (a *assignment) run(home *Scheduler) {
	j := a.job
	if j.tr != nil {
		// One chunk-wave child span per participant stint. The stint of the
		// completing participant ends just after the join wave publishes the
		// result; exporters fall back to the trace end for still-open waves.
		sh := 0
		if home != nil {
			sh = home.cfg.shard
		}
		w := j.tr.WaveStart(sh, home != j.s)
		defer j.tr.WaveEnd(w)
	}
	j.runElastic(home, a.sub)
}

// addDependent registers d as a dependent of j, or reports that j is already
// terminal (returning its error: nil for a successful completion). The
// terminal handoff is arbitrated by depMu: complete and Cancel store the
// terminal state before draining dependents under depMu, so a registration
// is either observed by the drain or sees the terminal state here.
func (j *Job) addDependent(d *Job) (registered bool, terminalErr error) {
	j.depMu.Lock()
	defer j.depMu.Unlock()
	switch State(j.state.Load()) {
	case Done, Canceled:
		return false, j.err
	}
	j.dependents = append(j.dependents, d)
	return true, nil
}

// depDone records one upstream turning terminal. The last call — holding the
// only remaining wait — either releases the job into an admission queue or,
// if any upstream failed, cancels it with the upstream's error wrapped.
func (j *Job) depDone(upErr error) {
	if upErr != nil {
		j.depMu.Lock()
		if j.depErr == nil {
			j.depErr = upErr
		}
		j.depMu.Unlock()
	}
	if j.waits.Add(-1) != 0 {
		return
	}
	j.depMu.Lock()
	upErr = j.depErr
	j.depMu.Unlock()
	// The edges served their purpose: drop them so a held tail handle does
	// not pin the whole ancestry (bodies, partials) in memory. Safe: the
	// zero-waits branch runs exactly once, registration is over, and
	// checkCycle short-circuits on the acyclic mark before ever reading a
	// submitted job's edge list.
	j.after = nil
	if upErr == nil {
		j.release()
	} else {
		j.cancel(Blocked, upErr, upstreamCancel)
	}
}

// checkCycle verifies that the upstream graph reachable from after is
// acyclic. The amortization is deliberate: every job Submit returns is
// marked acyclic — its own ancestry was verified when it was submitted, and
// its edge list is immutable afterwards — so the DFS treats such nodes as
// proven and a long chain costs O(len(After)) per submission instead of
// re-walking its whole ancestry. Through the public API the walk therefore
// terminates at the first hop and ErrCycle is unreachable (as documented on
// ErrCycle, handles of already-submitted jobs cannot form a cycle); the DFS
// only does real work — and is only refutable — for Job values that did not
// come out of Submit, which is exactly the defensive surface it exists for.
func checkCycle(after []*Job) error {
	verified := true
	for _, u := range after {
		if u != nil && !u.acyclic {
			verified = false
			break
		}
	}
	if verified {
		// The public-API fast path: every upstream came out of Submit, so
		// the walk would terminate at the first hop anyway — skip the map
		// allocation entirely.
		return nil
	}
	const (
		grey, black = 1, 2
	)
	color := make(map[*Job]int8, len(after))
	var visit func(*Job) error
	visit = func(u *Job) error {
		if u.acyclic {
			return nil
		}
		switch color[u] {
		case grey:
			return ErrCycle
		case black:
			return nil
		}
		color[u] = grey
		for _, v := range u.after {
			if v == nil {
				continue // rejected separately at submit validation
			}
			if err := visit(v); err != nil {
				return err
			}
		}
		color[u] = black
		return nil
	}
	for _, u := range after {
		if err := visit(u); err != nil {
			return err
		}
	}
	return nil
}
