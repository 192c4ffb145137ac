package jobs

import (
	"fmt"
	"time"

	"loopsched/internal/trace"
)

// This file owns every write of Job.state: one function per edge of the
// lifecycle diagram in the package doc, each fixing the order of its edge's
// side effects. TestJobStateWrittenOnlyInLifecycle keeps it that way.

// Transient internal states; State reports both as Pending.
const (
	// stateStealing: a sibling shard pulled the job out of a queue and is
	// re-pointing it (see Sharded.migrate); excludes Cancel meanwhile.
	stateStealing int32 = 100
	// stateSuspending: Suspend took a Pending job out of its queue and has
	// not published Suspended yet (see noteSuspended); excludes Cancel, and
	// Resume acts only on the published state.
	stateSuspending int32 = 101
)

// block is the submit edge into Blocked. The caller raised the blocked gauge
// under submitMu, where Close's blocked drain observes it. The registration
// sentinel in waits keeps a racing upstream completion from releasing the
// job before every edge is registered; the last registration may release or
// cancel it at once.
func (j *Job) block() {
	j.state.Store(int32(Blocked))
	j.tr.Event(trace.EvBlocked, j.home.cfg.shard, 0, "")
	j.waits.Store(int32(len(j.after)) + 1)
	for _, u := range j.after {
		if registered, upErr := u.addDependent(j); !registered {
			j.depDone(upErr)
		}
	}
	j.depDone(nil) // drop the sentinel
}

// completeInline is the edge of a degenerate loop (N <= 0): the job never
// queues; it passes through Running on the calling goroutine and completes at
// once, a reducing job yielding its identity, with its trace still following
// admitted → dispatched → joined. from is Pending for a fresh submission (not
// yet published, so a plain store) or Blocked for a released dependent (a
// CAS, which Cancel may win). s is the job's home scheduler.
func (s *Scheduler) completeInline(j *Job, from State) {
	if from == Blocked {
		if !j.state.CompareAndSwap(int32(Blocked), int32(Running)) {
			return
		}
		s.blocked.Add(-1)
		s.released.Add(1)
		s.signalBlockedFreed()
		j.tr.Event(trace.EvReleased, s.cfg.shard, 0, "")
	} else {
		j.state.Store(int32(Running))
	}
	j.started = time.Now()
	j.acc = j.req.Identity
	j.tr.Event(trace.EvAdmitted, s.cfg.shard, 0, "")
	j.tr.Event(trace.EvDispatched, s.cfg.shard, 0, "degenerate")
	j.complete()
}

// admit is the dispatcher's Pending → Running edge for one popped job: it
// molds a sub-team from the popped idle workers and performs the release
// wave. It returns the remaining idle set (unchanged if the job is no longer
// Pending; every other edge out of Pending takes the queue entry first, so
// a popped job always is).
func (s *Scheduler) admit(j *Job, idle []int) []int {
	if !j.state.CompareAndSwap(int32(Pending), int32(Running)) {
		return idle
	}
	s.leaveQueue()
	chunk := s.chunkFor(j)
	maxK := s.maxTeam(j, chunk)
	k := min(len(idle), s.teamSize(j, int(s.depth.Load())), maxK)
	s.releaseWave(j, idle[len(idle)-k:], chunk, maxK)
	return idle[:len(idle)-k]
}

// admitDirect is the submit fast path's admit edge. The job is not yet
// published (Submit has not returned), so no Cancel can race it: a plain
// store suffices where the dispatcher's admit needs a CAS.
func (s *Scheduler) admitDirect(j *Job, ids []int, chunk, maxK int) {
	if j.tr != nil {
		j.tr.SetOwner(j)
		j.tr.Event(trace.EvAdmitted, s.cfg.shard, 0, "direct")
	}
	j.state.Store(int32(Running))
	s.releaseWave(j, ids, chunk, maxK)
}

// releaseWave performs the fork side of both admit edges on the given
// workers: one buffered value send per worker, never waiting for the
// sub-team to assemble.
func (s *Scheduler) releaseWave(j *Job, ids []int, chunk, maxK int) {
	k := len(ids)
	j.initElastic(k, chunk, maxK)
	j.started = time.Now()
	s.running.Add(1)
	j.tr.Event(trace.EvDispatched, s.cfg.shard, k, "")
	for _, id := range ids {
		// k <= maxK, so the stack always has a free sub id here.
		sub, _ := j.popSlot()
		s.assign[id] <- assignment{job: j, sub: sub}
	}
	// Publish the job for growth and cross-shard lending only after the
	// release wave: growers drain the slot stack concurrently, and
	// advertising the job earlier could take the initial team's slots. By
	// now the team may already have finished the job, and leaveRunning drops
	// the entry under growMu only after active hit 0, so an entry is added
	// only while a participant remains — a finished job left behind could be
	// Released and recycled under the dispatcher's preemption scan.
	s.growMu.Lock()
	if j.active.Load() > 0 {
		s.growSet[j] = struct{}{}
		s.growables.Store(int32(len(s.growSet)))
	}
	s.growMu.Unlock()
}

// leaveRunning is the common step of both edges out of Running (complete and
// park): the job leaves the grow registry, where a grower or sibling lender
// must not find a finished or parked job, and the running gauge. A
// degenerate job entered neither.
func (s *Scheduler) leaveRunning(j *Job) {
	if j.workers.Load() == 0 {
		return
	}
	s.growMu.Lock()
	delete(s.growSet, j)
	s.growables.Store(int32(len(s.growSet)))
	s.growMu.Unlock()
	s.running.Add(-1)
}

// complete is the Running → Done edge, taken exactly once: by the last
// participant to leave, or by completeInline.
// Dependents are released before waiters wake: once a waiter wakes, the
// owner may Release the job, and the recycler's field reset would race a
// late dependent drain. A dependent therefore never starts before every
// iteration of this job has executed and folded.
func (j *Job) complete() {
	if j.req.RBody != nil {
		j.foldSlots()
		j.result = j.acc
	}
	j.state.Store(int32(Done))
	if s := j.s; s != nil {
		s.leaveRunning(j)
		s.recordCompletion(j)
	}
	j.depMu.Lock()
	deps := j.dependents
	j.dependents = nil
	j.depMu.Unlock()
	for _, d := range deps {
		d.depDone(nil)
	}
	j.finish()
}

// Trace details of cancel; shutdownCancel also keeps the job's checkpoint
// (shutting down with suspended jobs is suspend-to-disk).
const (
	upstreamCancel = "upstream"
	shutdownCancel = "shutdown"
)

// cancel is the edge from Pending, Blocked or Suspended to Canceled, for all
// three causes: Job.Cancel (reason ""), a failed upstream (upErr non-nil,
// upstreamCancel) and Close's sweep of suspended jobs (shutdownCancel). It
// reports false when the job was not in state from.
//
// The CAS, the error and the dependent snapshot share one depMu section, so
// a concurrent addDependent either registers before the snapshot (and is
// notified) or sees Canceled with the error written. Waiters wake last, so a
// woken Wait finds the gauges, the checkpoint and the trace settled.
func (j *Job) cancel(from State, upErr error, reason string) bool {
	j.depMu.Lock()
	if !j.state.CompareAndSwap(int32(from), int32(Canceled)) {
		j.depMu.Unlock()
		return false
	}
	j.err = ErrCanceled
	if upErr != nil {
		j.err = fmt.Errorf("jobs: upstream canceled: %w", upErr)
	}
	deps := j.dependents
	j.dependents = nil
	j.depMu.Unlock()
	// A queued job is accounted to the scheduler whose queue holds it; Blocked
	// and Suspended jobs sit outside every queue, on their home's gauges.
	s := j.home
	switch from {
	case Pending:
		// Job.Cancel took the entry out of the queue first, so this is the
		// one side that leaves the queue for the job.
		s = j.s
		s.leaveQueue()
	case Blocked:
		// Upstreams that have not turned terminal still list the job.
		j.upstreamHeld = upErr == nil
		s.blocked.Add(-1)
		s.signalBlockedFreed()
	case Suspended:
		s.unregisterSuspended(j)
	}
	s.canceled.Add(1)
	if upErr != nil {
		s.depCanceled.Add(1)
	}
	if reason != shutdownCancel {
		j.home.deleteCheckpoint(j)
	}
	j.tr.Event(trace.EvCanceled, s.cfg.shard, 0, reason)
	for _, d := range deps {
		d.depDone(j.err)
	}
	j.finish()
	return true
}

// release is the edge out of Blocked once every upstream completed: into an
// admission queue, or straight to Done for a degenerate loop.
func (j *Job) release() {
	if j.req.N <= 0 {
		j.home.completeInline(j, Blocked)
		return
	}
	j.reenter(Blocked)
}

// reenter routes a job re-entering admission from Blocked or Suspended: to
// the least-loaded shard of a sharded pool, else (or if that shard's window
// has closed) to its home scheduler, whose window stays open while the job
// is blocked or suspended.
func (j *Job) reenter(from State) bool {
	if j.pool != nil {
		if target := j.pool.routeFor(j.tenant); target != j.home && target.enqueue(j, from) {
			return true
		}
	}
	return j.home.enqueue(j, from)
}

// enqueue is the Blocked → Pending (release) and Suspended → Pending
// (resume) edge onto this scheduler's queue. It reports false only when the
// release window has closed (teardown drained this scheduler's blocked
// jobs). It runs on a completing upstream's worker or on the resumer's
// goroutine, so it never blocks: the queue slot is forced, the population
// being bounded by the blocked gate at submission.
func (s *Scheduler) enqueue(j *Job, from State) bool {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.releaseClosed {
		return false
	}
	// The job migrates from the home's blocked or suspended gauge to this
	// scheduler's depth; the seqlock keeps pool-wide Stats out of the window.
	if p := s.cfg.pool; p != nil {
		p.migrateBegin.Add(1)
		defer p.migrateEnd.Add(1)
	}
	// Depth and pointer first, so a Cancel racing the fresh Pending state
	// settles against this scheduler (the CAS publishes both).
	s.joinQueue()
	j.s = s
	if !j.state.CompareAndSwap(int32(from), int32(Pending)) {
		s.leaveQueue() // canceled meanwhile, against the home's gauges
		return true
	}
	home := j.home
	if from == Blocked {
		home.blocked.Add(-1)
		home.released.Add(1)
		home.signalBlockedFreed()
		j.tr.Event(trace.EvReleased, s.cfg.shard, 0, "")
	} else {
		// Suspended wall time is the caller's pause, not queue wait.
		if at := j.suspendedAt.Swap(0); at != 0 {
			j.suspendedNanos.Add(time.Now().UnixNano() - at)
		}
		home.unregisterSuspended(j)
		home.resumedTotal.Add(1)
		if j.tr != nil {
			j.tr.Event(trace.EvResumed, s.cfg.shard, 0, fmt.Sprintf("cursor=%d", j.resumeFrom))
		}
	}
	j.tr.Event(trace.EvAdmitted, s.cfg.shard, 0, "")
	s.fq.push(j)
	s.wake()
	return true
}

// suspendQueued is the Pending → Suspended edge for a job the caller already
// took out of s's queue (see Job.Suspend). Owning the entry excludes every
// other edge out of Pending (admit and steal pop first, Cancel dequeues
// first), so the CAS fails only if that rule is broken.
func (j *Job) suspendQueued(s *Scheduler) bool {
	if !j.state.CompareAndSwap(int32(Pending), stateSuspending) {
		return false
	}
	s.leaveQueue()
	j.suspendedAt.Store(time.Now().UnixNano())
	j.home.noteSuspended(j)
	return true
}

// parkSuspended is the Running → Suspended edge, taken by the last
// quiescing participant (active hit 0): every participant has folded or
// stored its partials and left, so the claim watermark and the accumulator
// are exact. An ordered reduction folds the slots of the chunks claimed this
// stint, which end exactly at the watermark. A suspension that raced the
// cursor's exhaustion completes the job instead — every iteration already
// executed.
func (j *Job) parkSuspended() {
	if j.cursor.Remaining() == 0 {
		j.suspendReq.Store(false)
		j.complete()
		return
	}
	now := time.Now()
	claimed := j.cursor.Claimed()
	if j.ordered() {
		j.slots = j.slots[:(claimed-j.resumeFrom)/j.chunk]
	}
	j.foldSlots()
	j.resumeFrom = claimed
	j.resumeAcc = j.acc
	j.ranNanos.Add(int64(now.Sub(j.started)))
	j.suspendedAt.Store(now.UnixNano())
	j.suspendReq.Store(false)
	j.s.leaveRunning(j)
	// The job stays Running until noteSuspended publishes Suspended: no
	// participant is left, and nothing else moves a Running job's state.
	j.home.noteSuspended(j)
}

// noteSuspended is the tail of both suspend edges, on the job's home: gauges,
// the durable snapshot, and last the suspended-set entry (Close's sweep
// target), the state and then the event, all under suspendMu (Event never
// blocks). A Resume acts only on a published Suspended state and takes
// suspendMu before its own event, so the suspended event never runs ahead of
// the state or behind the resumed one. Close's sweep either finds the job
// registered and Suspended, or has already run and leaves the cancellation
// to this call.
func (s *Scheduler) noteSuspended(j *Job) {
	s.suspended.Add(1)
	s.suspendedTotal.Add(1)
	s.writeCheckpoint(j)
	s.suspendMu.Lock()
	closedNow := s.suspendClosed
	if !closedNow {
		s.suspendSet[j] = struct{}{}
	}
	j.state.Store(int32(Suspended))
	if j.tr != nil {
		j.tr.Event(trace.EvSuspended, s.cfg.shard, 0, fmt.Sprintf("cursor=%d", j.resumeFrom))
	}
	s.suspendMu.Unlock()
	if closedNow {
		j.cancel(Suspended, nil, shutdownCancel)
	}
}

// unregisterSuspended drops a job leaving Suspended (resumed or canceled)
// from the suspended set and gauge.
func (s *Scheduler) unregisterSuspended(j *Job) {
	s.suspendMu.Lock()
	delete(s.suspendSet, j)
	s.suspendMu.Unlock()
	s.suspended.Add(-1)
}

// migrate is the steal edge, Pending → stealing → Pending, for a job thief
// popped from victim's queue. The transient state excludes Cancel while the
// queue accounting and the scheduler pointer move, so they land on exactly
// one shard. The thief popped the job, so no other edge out of Pending can
// race the CAS.
func (p *Sharded) migrate(j *Job, victim, thief *Scheduler) bool {
	if !j.state.CompareAndSwap(int32(Pending), stateStealing) {
		return false
	}
	p.migrateBegin.Add(1)
	victim.leaveQueue()
	j.s = thief
	thief.joinQueue()
	p.migrateEnd.Add(1)
	j.state.Store(int32(Pending))
	if j.tr != nil {
		j.tr.Event(trace.EvStolen, thief.cfg.shard, 0, fmt.Sprintf("from=%d", victim.cfg.shard))
	}
	return true
}

// freeJob is the recycle edge: a terminal job (or one abandoned on a failed
// submission) goes back to the freelist as a fresh Pending job. The
// generation bump is first and the broadcast wakes any stale waiter parked
// across the Release, so late Wait callers observe ErrReleased instead of
// the next generation's fields. The freelist is bounded: beyond QueueDepth
// parked jobs the recycle is dropped and the garbage collector takes it.
func (s *Scheduler) freeJob(j *Job) {
	// An abandoned submission must not leave a snapshot behind for recovery
	// to resurrect; for a completed job the delete is an idempotent no-op.
	s.deleteCheckpoint(j)
	j.gen.Add(1)
	j.waitMu.Lock()
	j.lazyDone = nil
	j.waitMu.Unlock()
	j.waitCond.Broadcast()
	// Field reset: everything generation-specific, keeping the recyclable
	// capacity (slots, freeSubs, the cond wiring).
	j.req = Request{}
	j.state.Store(int32(Pending))
	j.result, j.err = 0, nil
	j.workers.Store(0)
	j.active.Store(0)
	j.maxK = 0
	j.acc = 0
	j.slots = j.slots[:0]
	j.tenant, j.prio, j.seq = "", 0, 0
	j.deadline = time.Time{}
	j.shrinkTo.Store(0)
	j.suspendReq.Store(false)
	j.suspendedAt.Store(0)
	j.suspendedNanos.Store(0)
	j.ranNanos.Store(0)
	j.resumeFrom, j.resumeAcc, j.chunk, j.ckptSeed = 0, 0, 0, 0
	j.ckpt = nil
	j.submitted, j.started = time.Time{}, time.Time{}
	j.s, j.home, j.pool = nil, nil, nil
	j.after, j.acyclic = nil, false
	j.tr = nil
	j.waits.Store(0)
	j.dependents, j.depErr = nil, nil
	s.freeMu.Lock()
	if len(s.freeJobs) < s.cfg.QueueDepth {
		s.freeJobs = append(s.freeJobs, j)
	}
	s.freeMu.Unlock()
}
