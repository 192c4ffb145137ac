// Package loopsched is a low-overhead parallel loop scheduler for fine-grain
// (microsecond-scale) loops, reproducing the runtime described in
//
//	M. Arif and H. Vandierendonck, "POSTER: Reducing the Burden of Parallel
//	Loop Schedulers for Many-Core Processors", PPoPP 2018.
//
// A Pool owns a team of persistent workers (goroutines locked to OS
// threads). Parallel loops are published to the team with a single release
// wave and completed with a single join wave — the paper's *half-barrier*
// pattern — instead of the two (or, with reductions, three) full barriers a
// conventional fork/join runtime executes. Reductions are folded into the
// join wave, so a reducing loop costs exactly P-1 combine operations applied
// in iteration order, which keeps non-commutative reducers correct.
//
// # Quick start
//
//	pool := loopsched.New(loopsched.Config{})
//	defer pool.Close()
//
//	pool.ForEach(len(xs), func(i int) { xs[i] *= 2 })
//
//	sum := pool.ReduceFloat64(len(xs), 0,
//		func(a, b float64) float64 { return a + b },
//		func(w, lo, hi int, acc float64) float64 {
//			for i := lo; i < hi; i++ { acc += xs[i] }
//			return acc
//		})
//
// The baseline runtimes the paper compares against (an OpenMP-style
// fork/join runtime and a Cilk-style work-stealing runtime) live under
// internal/ and are exercised by the benchmark harness in cmd/ and
// bench_test.go; library users only need this package.
package loopsched

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"loopsched/internal/core"
	"loopsched/internal/jobs"
	"loopsched/internal/reduce"
	"loopsched/internal/sched"
	"loopsched/internal/trace"
)

// Tracing re-exports: the async runtime's lifecycle tracing is implemented in
// internal/trace; these aliases let library users consume it without importing
// an internal package.
type (
	// Tracer collects per-job lifecycle traces and streams events to
	// subscribers; obtain the pool's from Pool.Tracer.
	Tracer = trace.Tracer
	// JobTrace is one job's recorded trace (events and chunk-wave stints);
	// obtain a job's from Job.Trace, or a finished one from Tracer.Trace.
	JobTrace = trace.JobTrace
	// TraceEvent is one lifecycle transition as delivered to subscribers.
	TraceEvent = trace.StreamEvent
	// TraceSubscription is a live event feed created by Tracer.Subscribe.
	TraceSubscription = trace.Subscription
)

// BarrierKind selects the synchronisation substrate of a Pool.
type BarrierKind int

// Barrier kinds.
const (
	// BarrierTree is a topology-aligned tree barrier (the default and the
	// paper's choice).
	BarrierTree BarrierKind = iota
	// BarrierCentralized is a single-counter barrier; it is simpler but its
	// cost grows linearly with the worker count.
	BarrierCentralized
)

// Config configures a Pool. The zero value selects the defaults: all
// available processors, tree barrier, half-barrier synchronisation, workers
// locked to OS threads.
type Config struct {
	// Workers is the team size including the caller; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Barrier selects the synchronisation substrate.
	Barrier BarrierKind
	// FullBarrier disables the half-barrier optimisation and uses
	// conventional full barriers at fork and join; it exists for
	// experimentation and for reproducing the paper's ablation.
	FullBarrier bool
	// GroupSize overrides the number of workers assumed to share a cache
	// domain when shaping the barrier tree; <= 0 uses a heuristic.
	GroupSize int
	// InnerFanout and OuterFanout tune the barrier tree's fan-out within and
	// across groups; values < 2 select the defaults.
	InnerFanout, OuterFanout int
	// DisableThreadLock keeps workers as ordinary goroutines instead of
	// locking them to OS threads. Locking is the default because it gives
	// the scheduler stable worker identities; disable it when creating many
	// short-lived pools (for example, in tests).
	DisableThreadLock bool
	// AsyncGrain is the default self-scheduling chunk size (in iterations)
	// for asynchronously submitted jobs; <= 0 selects a per-job heuristic.
	// Individual jobs override it with JobOptions.Grain.
	AsyncGrain int
	// AsyncRigid disables elastic sub-teams on the async runtime: every
	// job's sub-team is frozen at admission and partitioned statically, the
	// paper's rigid-team behaviour. It exists for comparison and for callers
	// that require the static-block body contract.
	AsyncRigid bool
	// AsyncShards partitions the async runtime's workers into per-topology-
	// domain shards, each with its own dispatcher, router-admitted to the
	// least-loaded shard with cross-shard work stealing between them.
	// 0 selects a single shard (one dispatcher, the pre-sharding behaviour);
	// < 0 derives the shard count from the machine topology (one shard per
	// cache/socket group); >= 2 selects that many shards.
	AsyncShards int
	// AsyncStealInterval is how often a fully idle shard re-scans its
	// siblings for queued jobs to steal or elastic jobs to lend workers to;
	// <= 0 selects the default (200µs). Ignored with fewer than two shards.
	AsyncStealInterval time.Duration
	// Trace enables lifecycle tracing on the async runtime: every job
	// records a span of its transitions (submit, admission, dispatch,
	// elastic churn, join) and finished traces are kept in a ring queryable
	// through Pool.Tracer. Tracing off costs one nil check per transition.
	Trace bool
	// TraceCapacity is the number of finished job traces retained;
	// <= 0 selects the default (1024). Ignored unless Trace is set.
	TraceCapacity int
	// SLOTarget is the per-tenant deadline-hit objective burn rates are
	// measured against in the async runtime's SLO snapshots; outside (0, 1)
	// selects the default (0.99).
	SLOTarget float64
	// MaxWait bounds how long an async submission may block for an admission
	// queue slot once the queue is full: past it the submission is rejected
	// with ErrBacklogged carrying a suggested retry delay. <= 0 keeps the
	// default unbounded block. See also JobOptions.NoWait.
	MaxWait time.Duration
	// ShedInfeasible makes the async runtime reject, with ErrInfeasible and
	// a suggested retry delay, deadline jobs whose deadline could not be met
	// even if the queue drained at the measured service rate — instead of
	// admitting them only to miss.
	ShedInfeasible bool
	// BreakerBurnRate arms per-tenant circuit breakers on the async runtime:
	// a tenant whose recent deadline outcomes imply an SLO burn rate at or
	// above this limit, while it holds a meaningful share of the queue, is
	// shed at intake with ErrBreakerOpen until a cooldown and a successful
	// probe. <= 0 (the default) disables the breakers.
	BreakerBurnRate float64
	// BreakerCooldown is how long an open breaker sheds before probing for
	// recovery; <= 0 selects the default (250ms). Ignored unless
	// BreakerBurnRate is set.
	BreakerCooldown time.Duration
}

// Pool is a team of persistent workers executing parallel loops. The
// synchronous methods (For, ForEach, the reductions) belong to a single
// master goroutine — the goroutine that created the pool — and are not safe
// for concurrent use. The asynchronous methods (Submit, SubmitFor,
// SubmitReduce, Group) are safe from any number of goroutines: they route
// through a multi-tenant jobs runtime that multiplexes concurrent loop jobs
// onto a second persistent team of the same size, created lazily on first
// use.
type Pool struct {
	s *core.Scheduler

	// asyncCfg is the async runtime's configuration (tracer included),
	// built once by New; jobs() adds only the tenant weights registered
	// before first use.
	asyncCfg jobs.ShardedConfig

	jobsMu     sync.Mutex
	jobsRT     *jobs.Sharded
	jobsClosed bool
	// tenantWeights collects Pool.Tenant registrations made before the
	// async runtime is instantiated, applied at creation.
	tenantWeights map[string]int

	// handleMu/handleFree recycle public Job handles returned through
	// Job.Release, mirroring the runtime's internal job freelist so a
	// steady-state Submit/Wait/Release cycle allocates nothing at this layer
	// either. Bounded; overflow falls to the garbage collector.
	handleMu   sync.Mutex
	handleFree []*Job

	// batchMu/batchReqs/batchJobs are SubmitBatch's reusable translation
	// scratch (public requests -> runtime requests -> runtime handles).
	// Serializing concurrent batches on one scratch is deliberate: the batch
	// API amortizes locking, it is not a latency path.
	batchMu   sync.Mutex
	batchReqs []jobs.Request
	batchJobs []*jobs.Job
}

// maxFreeHandles bounds the public handle freelist.
const maxFreeHandles = 1024

// New creates a pool. Call Close to release its workers.
func New(cfg Config) *Pool {
	kind := core.BarrierTree
	if cfg.Barrier == BarrierCentralized {
		kind = core.BarrierCentralized
	}
	mode := core.ModeHalf
	if cfg.FullBarrier {
		mode = core.ModeFull
	}
	s := core.New(core.Config{
		Workers:      cfg.Workers,
		Barrier:      kind,
		Mode:         mode,
		GroupSize:    cfg.GroupSize,
		InnerFanout:  cfg.InnerFanout,
		OuterFanout:  cfg.OuterFanout,
		LockOSThread: !cfg.DisableThreadLock,
	})
	var tracer *trace.Tracer
	if cfg.Trace {
		tracer = trace.NewTracer(cfg.TraceCapacity)
	}
	// The async team is never locked to OS threads: unlike the synchronous
	// team's spin-waiting workers, jobs workers park on channels between
	// jobs, and pinning a second P threads would only oversubscribe the
	// machine.
	asyncCfg := jobs.ShardedConfig{
		Config: jobs.Config{
			Workers:         s.P(),
			DefaultGrain:    cfg.AsyncGrain,
			DisableElastic:  cfg.AsyncRigid,
			Tracer:          tracer,
			SLOTarget:       cfg.SLOTarget,
			MaxWait:         cfg.MaxWait,
			ShedInfeasible:  cfg.ShedInfeasible,
			BreakerBurnRate: cfg.BreakerBurnRate,
			BreakerCooldown: cfg.BreakerCooldown,
			Name:            "async-" + s.Name(),
		},
		Shards:        resolveShardRequest(cfg.AsyncShards),
		StealInterval: cfg.AsyncStealInterval,
	}
	return &Pool{s: s, asyncCfg: asyncCfg}
}

// NewDefault creates a pool with the default configuration.
func NewDefault() *Pool { return New(Config{}) }

// Workers returns the team size, including the master.
func (p *Pool) Workers() int { return p.s.P() }

// Close releases the pool's workers (and the async jobs runtime, if it was
// ever used; queued jobs are drained first). The pool must not be used
// afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.jobsMu.Lock()
	rt := p.jobsRT
	p.jobsRT = nil
	p.jobsClosed = true
	p.jobsMu.Unlock()
	if rt != nil {
		rt.Close()
	}
	p.s.Close()
}

// jobs returns the lazily created async runtime, or nil after Close.
func (p *Pool) jobs() *jobs.Sharded {
	p.jobsMu.Lock()
	defer p.jobsMu.Unlock()
	if p.jobsRT == nil && !p.jobsClosed {
		cfg := p.asyncCfg
		cfg.TenantWeights = maps.Clone(p.tenantWeights)
		p.jobsRT = jobs.NewSharded(cfg)
	}
	return p.jobsRT
}

// Tenant registers (or re-weights) a tenant account on the async runtime:
// under saturation, tenants are admitted in proportion to their weights
// (weights < 1 are clamped to 1). Tag jobs with JobOptions.Tenant to charge
// them to an account; unregistered tenants run at weight 1. Tenant is safe
// for concurrent use and may be called before any job is submitted — the
// weights survive until the runtime is created and apply from its first
// admission.
func (p *Pool) Tenant(name string, weight int) {
	p.jobsMu.Lock()
	if p.tenantWeights == nil {
		p.tenantWeights = make(map[string]int)
	}
	p.tenantWeights[name] = weight
	rt := p.jobsRT
	p.jobsMu.Unlock()
	if rt != nil {
		rt.SetTenantWeight(name, weight)
	}
}

// AsyncShards returns the shard count the async runtime has (or will have
// on first use: observing a pool must not instantiate its worker teams), or
// 0 after Close.
func (p *Pool) AsyncShards() int {
	p.jobsMu.Lock()
	rt, closed := p.jobsRT, p.jobsClosed
	p.jobsMu.Unlock()
	if rt != nil {
		return rt.Shards()
	}
	if closed {
		return 0
	}
	return jobs.ResolveShardCount(p.s.P(), p.asyncCfg.Shards)
}

// resolveShardRequest maps Config.AsyncShards (0 = one shard, < 0 =
// topology-derived) onto the jobs runtime's convention (<= 0 =
// topology-derived).
func resolveShardRequest(asyncShards int) int {
	switch {
	case asyncShards == 0:
		return 1
	case asyncShards < 0:
		return 0
	}
	return asyncShards
}

// AsyncStats returns a snapshot of the async runtime's shards and merged
// totals. The zero value is returned before the first async submission and
// after Close: a read-only observer never instantiates the runtime.
func (p *Pool) AsyncStats() jobs.ShardedStats {
	p.jobsMu.Lock()
	rt := p.jobsRT
	p.jobsMu.Unlock()
	if rt == nil {
		return jobs.ShardedStats{}
	}
	return rt.Stats()
}

// Tracer returns the pool's lifecycle tracer, or nil unless Config.Trace
// was set. Subscribe to it for a live event feed, or query finished job
// traces with Tracer.Trace.
func (p *Pool) Tracer() *Tracer { return p.asyncCfg.Tracer }

// Scheduler exposes the underlying runtime through the internal scheduler
// interface; it is used by the benchmark harness and example applications
// that accept any runtime.
func (p *Pool) Scheduler() sched.Scheduler { return p.s }

// String implements fmt.Stringer.
func (p *Pool) String() string {
	return fmt.Sprintf("loopsched.Pool{workers=%d, %s, %s}", p.s.P(), p.s.Config().Barrier, p.s.Config().Mode)
}

// For executes body over contiguous chunks of [0, n), one chunk per worker
// (static block partitioning). body receives the worker index and the
// half-open chunk bounds.
func (p *Pool) For(n int, body func(worker, low, high int)) {
	p.s.For(n, body)
}

// ForRange executes body over contiguous chunks of [0, n) without exposing
// the worker index.
func (p *Pool) ForRange(n int, body func(low, high int)) {
	p.s.For(n, func(w, low, high int) { body(low, high) })
}

// ForEach executes body once per index in [0, n).
func (p *Pool) ForEach(n int, body func(i int)) {
	p.s.For(n, func(w, low, high int) {
		for i := low; i < high; i++ {
			body(i)
		}
	})
}

// ReduceFloat64 executes a reducing loop over [0, n): each worker folds its
// chunk into a private accumulator starting at identity, and the per-worker
// results are combined — inside the join wave, in iteration order — with
// combine.
func (p *Pool) ReduceFloat64(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) float64 {
	return p.s.ForReduce(n, identity, combine, body)
}

// ReduceVec executes a loop that accumulates element-wise into a vector of
// width float64 values (for example, the moment sums of a regression) and
// returns the combined vector.
func (p *Pool) ReduceVec(n, width int, body func(worker, low, high int, acc []float64)) []float64 {
	return p.s.ForReduceVec(n, width, body)
}

// Op describes a reduction operation over values of type T: an identity
// constructor and an associative (not necessarily commutative) combine.
type Op[T any] = reduce.Op[T]

// SumOp returns the addition reduction for a numeric type.
func SumOp[T int | int32 | int64 | float32 | float64]() Op[T] { return reduce.Sum[T]() }

// MaxOp returns the maximum reduction with the given lowest value as
// identity.
func MaxOp[T int | int32 | int64 | float32 | float64](lowest T) Op[T] { return reduce.Max[T](lowest) }

// MinOp returns the minimum reduction with the given highest value as
// identity.
func MinOp[T int | int32 | int64 | float32 | float64](highest T) Op[T] { return reduce.Min[T](highest) }

// AppendOp returns the slice-concatenation reduction — the canonical
// non-commutative (ordered) reducer.
func AppendOp[T any]() Op[[]T] { return reduce.Append[T]() }

// Reduce executes a reducing loop with an arbitrary view type T. Per-worker
// views are allocated statically before the loop starts (the paper's
// replacement for lazily created Cilk reducer views) and folded into the
// join wave in iteration order with exactly Workers()-1 combine operations.
func Reduce[T any](p *Pool, n int, op Op[T], body func(worker, low, high int, acc T) T) T {
	views := reduce.NewViews(op, p.Workers())
	p.s.ForCombine(n,
		func(w, low, high int) {
			views.Set(w, body(w, low, high, views.Get(w)))
		},
		views.CombineInto,
	)
	return views.Root()
}

// Reducer is a reusable reduction variable bound to a pool: the equivalent
// of a Cilk reducer hyperobject, except that its per-worker views are
// allocated once (statically) and reused across loops instead of being
// created lazily and merged at steals. Use it when the same reduction
// variable is updated from many loops, or when a loop updates several
// reduction variables at once.
type Reducer[T any] struct {
	pool  *Pool
	op    Op[T]
	views *reduce.Views[T]
}

// NewReducer creates a reducer bound to the pool.
func NewReducer[T any](p *Pool, op Op[T]) *Reducer[T] {
	return &Reducer[T]{pool: p, op: op, views: reduce.NewViews(op, p.Workers())}
}

// View returns a pointer-free accessor pair for worker w: the current view
// value and a setter. Most callers should use Update instead.
func (r *Reducer[T]) View(w int) T { return r.views.Get(w) }

// Update folds x into worker w's view. It must only be called from loop
// bodies running on the reducer's pool, using the worker index the body
// received.
func (r *Reducer[T]) Update(w int, x T) { r.views.Update(w, x) }

// Set overwrites worker w's view.
func (r *Reducer[T]) Set(w int, x T) { r.views.Set(w, x) }

// ForCombine runs a loop on the reducer's pool and folds the reducer's
// views inside the join wave; after it returns, the combined value is
// available from Value. Exactly Workers()-1 combines are performed.
func (r *Reducer[T]) ForCombine(n int, body func(worker, low, high int)) {
	r.pool.s.ForCombine(n, body, r.views.CombineInto)
}

// Value returns the reduction of all views (after ForCombine, that is the
// root view) and resets the reducer for reuse.
func (r *Reducer[T]) Value() T {
	v := r.views.Fold()
	return v
}

// Async error sentinels, for errors.Is against Job.Wait results.
var (
	// ErrCanceled is returned by Wait on a job canceled before it started —
	// explicitly with Cancel, or because an upstream dependency was canceled
	// (the dependent's error then also wraps the upstream's).
	ErrCanceled = jobs.ErrCanceled
	// ErrClosed is returned by Wait on a job submitted after Close.
	ErrClosed = jobs.ErrClosed
	// ErrCycle is returned at submission when JobOptions.After closes a
	// dependency cycle. Well-typed use cannot build one (After only accepts
	// handles of already-submitted jobs), but submission verifies the graph
	// anyway.
	ErrCycle = jobs.ErrCycle
	// ErrReleased is returned by Wait/Result callers that raced a Release:
	// the handle's job was already recycled. It marks a use-after-release
	// bug in the caller, not a scheduler failure.
	ErrReleased = jobs.ErrReleased
	// ErrInfeasible is returned at submission (wrapped in an overload error
	// carrying a retry hint — see SuggestedRetry) when ShedInfeasible is set
	// and the job's deadline could not be met even if the queue drained at
	// the measured service rate.
	ErrInfeasible = jobs.ErrInfeasible
	// ErrBacklogged is returned at submission when the admission queue is
	// full and either JobOptions.NoWait was set or Config.MaxWait elapsed
	// before a slot freed. Carries a retry hint — see SuggestedRetry.
	ErrBacklogged = jobs.ErrBacklogged
	// ErrBreakerOpen is returned at submission when the job's tenant has an
	// open circuit breaker (Config.BreakerBurnRate): the tenant is burning
	// its SLO while crowding the queue, and is shed until a cooldown and a
	// successful probe. Carries a retry hint — see SuggestedRetry.
	ErrBreakerOpen = jobs.ErrBreakerOpen
)

// SuggestedRetry extracts the retry-after hint from an overload rejection
// (ErrInfeasible, ErrBacklogged or ErrBreakerOpen): the delay after which
// the submission is next expected to be admittable. ok is false when err
// carries no hint.
func SuggestedRetry(err error) (d time.Duration, ok bool) {
	return jobs.SuggestedRetry(err)
}

// Job is a handle to an asynchronously submitted parallel loop. Many jobs
// run concurrently on the pool's async team: each is molded onto a sub-team
// of k workers chosen from the queue pressure and the job's size, and
// completes through a single join half-barrier wave — concurrent jobs never
// synchronise with each other. Job methods are safe for concurrent use.
type Job struct {
	inner *jobs.Job
	pool  *Pool
	err   error // submission error; the job never ran
}

// Wait blocks until the job completes and returns its error (nil on
// success). Canceled jobs return ErrCanceled.
func (j *Job) Wait() error {
	_, err := j.Result()
	return err
}

// Result blocks until the job completes and returns the reduction result
// (0 for non-reducing jobs) and any error.
func (j *Job) Result() (float64, error) {
	if j.inner == nil {
		return 0, j.err
	}
	return j.inner.Wait()
}

// Cancel cancels the job if it has not started yet and reports whether it
// did; a canceled job's Wait returns an error and its body never runs.
func (j *Job) Cancel() bool {
	if j.inner == nil {
		return false
	}
	return j.inner.Cancel()
}

// Suspend parks the job with its progress checkpointed: a queued job parks
// instantly, a running one at its next chunk-wave boundary (no participant
// is ever interrupted mid-chunk). Reports whether the pause was accepted —
// false for terminal, blocked, or rigid mid-run jobs; true (idempotently)
// for one already suspended. A suspended job holds no workers and its Wait
// keeps blocking until it is resumed or canceled.
func (j *Job) Suspend() bool {
	if j.inner == nil {
		return false
	}
	return j.inner.Suspend()
}

// Resume re-admits a suspended job from its checkpointed cursor watermark:
// every iteration below it ran exactly once and its partial reduction is
// preserved, so the result is byte-identical to an uninterrupted run.
// Reports false when the job is not suspended (including the window where a
// running job has accepted a Suspend but not parked yet — retry after the
// park, observable as the "suspended" trace event).
func (j *Job) Resume() bool {
	if j.inner == nil {
		return false
	}
	return j.inner.Resume()
}

// Workers returns the sub-team size the job was molded onto (0 until it is
// admitted).
func (j *Job) Workers() int {
	if j.inner == nil {
		return 0
	}
	return j.inner.Workers()
}

// Trace returns the job's lifecycle trace, or nil unless the pool was
// created with Config.Trace (failed submissions also have no trace). The
// trace is live while the job runs; after Wait it is finished and its OTLP
// span tree is complete.
func (j *Job) Trace() *JobTrace {
	if j.inner == nil {
		return nil
	}
	return j.inner.Trace()
}

// Release recycles the handle (and its runtime job) for reuse by later
// submissions, making steady-state submission allocation-free. Call it only
// after the job is terminal — Wait/Result returned, or Cancel succeeded —
// and only when no other goroutine still uses this handle: any later method
// call on a released handle is a use-after-release bug (a stale Wait that
// raced the Release reports ErrReleased; a call after the handle is recycled
// observes an unrelated job). Release on a failed-submission handle or a nil
// handle is a no-op beyond recycling. Jobs never released are simply
// garbage-collected, as before pooling.
func (j *Job) Release() {
	if j == nil {
		return
	}
	p, inner := j.pool, j.inner
	j.inner, j.pool, j.err = nil, nil, nil
	if inner != nil {
		inner.Release()
	}
	if p == nil {
		return
	}
	p.handleMu.Lock()
	if len(p.handleFree) < maxFreeHandles {
		p.handleFree = append(p.handleFree, j)
	}
	p.handleMu.Unlock()
}

// handle pops a recycled public Job handle (or allocates one) and binds it.
func (p *Pool) handle(inner *jobs.Job, err error) *Job {
	var j *Job
	p.handleMu.Lock()
	if n := len(p.handleFree); n > 0 {
		j = p.handleFree[n-1]
		p.handleFree[n-1] = nil
		p.handleFree = p.handleFree[:n-1]
	}
	p.handleMu.Unlock()
	if j == nil {
		j = &Job{}
	}
	j.inner, j.pool, j.err = inner, p, err
	return j
}

// failedJob wraps a submission error as an already-completed Job so call
// sites can chain Submit(...).Wait() without a separate error path.
func (p *Pool) failedJob(err error) *Job { return p.handle(nil, err) }

// submit routes a request to the async runtime: to the least-loaded shard,
// or to the pinned shard when the options name one (1-based; 0 routes).
// after carries the public dependency handles; a dependent of a job that
// never made it past submission fails immediately with the upstream's error
// wrapped under ErrCanceled, mirroring runtime cancel propagation.
func (p *Pool) submit(shard int, after []*Job, req jobs.Request) *Job {
	for _, u := range after {
		if u == nil {
			return p.failedJob(fmt.Errorf("loopsched: nil upstream job in After"))
		}
		if u.inner == nil {
			err := u.err
			if err == nil {
				err = fmt.Errorf("invalid zero Job")
			}
			return p.failedJob(fmt.Errorf("%w: upstream failed at submission: %w", ErrCanceled, err))
		}
		req.After = append(req.After, u.inner)
	}
	rt := p.jobs()
	if rt == nil {
		return p.failedJob(jobs.ErrClosed)
	}
	var j *jobs.Job
	var err error
	if shard != 0 {
		// Validate against the public 1-based contract before translating,
		// so the error names the caller's shard number, not the internal
		// 0-based index.
		if shard < 1 || shard > rt.Shards() {
			return p.failedJob(fmt.Errorf("loopsched: shard %d out of range [1,%d]", shard, rt.Shards()))
		}
		j, err = rt.SubmitTo(shard-1, req)
	} else {
		j, err = rt.Submit(req)
	}
	if err != nil {
		return p.failedJob(err)
	}
	return p.handle(j, nil)
}

// BatchRequest describes one job of a SubmitBatch call, in the SubmitFor
// shape (the body receives the sub-team worker index and chunk bounds —
// the only shape that needs no per-job closure, keeping batches
// allocation-free).
type BatchRequest struct {
	// N is the job's iteration count (<= 0 completes immediately).
	N int
	// Body is the chunked loop body (the SubmitFor contract).
	Body func(worker, low, high int)
	// Opts tunes the job. Opts.After and Opts.Shard are not supported in
	// batches (use Submit for dependency edges and pinning) and fail the
	// whole batch.
	Opts JobOptions
}

// SubmitBatch submits len(reqs) independent jobs in one call, filling out[i]
// with the handle for reqs[i]: the whole batch is routed to one shard and
// admitted under a single fair-queue lock acquisition, so the per-job
// submission cost is amortized N-fold. out is the caller's storage and must
// hold at least len(reqs) entries. An invalid request fails the whole batch
// before anything is submitted; ErrClosed can split a batch only when Close
// overlaps the call, in which case out[i] is non-nil for exactly the jobs
// that were admitted. Safe from any number of goroutines (concurrent batches
// serialize on the translation scratch).
func (p *Pool) SubmitBatch(reqs []BatchRequest, out []*Job) error {
	if len(out) < len(reqs) {
		return fmt.Errorf("loopsched: SubmitBatch needs len(out) >= len(reqs)")
	}
	if len(reqs) == 0 {
		return nil
	}
	for i := range reqs {
		if len(reqs[i].Opts.After) > 0 {
			return fmt.Errorf("loopsched: SubmitBatch request %d carries After; use Submit for dependencies", i)
		}
		if reqs[i].Opts.Shard != 0 {
			return fmt.Errorf("loopsched: SubmitBatch request %d pins a shard; use SubmitForOpts to pin", i)
		}
	}
	rt := p.jobs()
	if rt == nil {
		return ErrClosed
	}
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	p.batchReqs = p.batchReqs[:0]
	p.batchJobs = p.batchJobs[:0]
	for i := range reqs {
		r := &reqs[i]
		o := &r.Opts
		p.batchReqs = append(p.batchReqs, jobs.Request{
			N: r.N, Body: r.Body, MaxWorkers: o.MaxWorkers, Grain: o.Grain,
			Tenant: o.Tenant, Priority: o.Priority, Deadline: o.Deadline, Label: o.Label,
		})
		p.batchJobs = append(p.batchJobs, nil)
	}
	err := rt.SubmitBatch(p.batchReqs, p.batchJobs)
	for i, inner := range p.batchJobs {
		if inner != nil {
			out[i] = p.handle(inner, nil)
		}
		p.batchJobs[i] = nil
	}
	// Drop the body references so a retained scratch never pins caller
	// closures past the call.
	clear(p.batchReqs)
	return err
}

// JobOptions tunes one asynchronously submitted job. The zero value selects
// the defaults.
type JobOptions struct {
	// MaxWorkers caps the job's sub-team size; <= 0 means no cap beyond the
	// runtime's own limits.
	MaxWorkers int
	// Grain is the self-scheduling chunk size in iterations — the smallest
	// unit of work worth one atomic claim, and the minimum share a
	// sub-worker is admitted for. <= 0 selects the pool's AsyncGrain, or a
	// heuristic.
	Grain int
	// Commutative declares a reducing job's combine commutative (and its
	// identity a true identity), letting the runtime execute it elastically:
	// sub-workers self-schedule chunks and partials are folded in arrival
	// order. Leave it false for ordered (non-commutative) reductions, which
	// keep the rigid static-block path and worker-order folding.
	Commutative bool
	// Shard pins the job to one shard of a sharded async runtime, 1-based
	// (shard n of AsyncShards); 0 routes to the least-loaded shard. Pinning
	// controls admission locality: unless stealing is disabled, an idle
	// sibling shard may still steal the job or lend workers to it. Out of
	// range values fail the job with an error from Wait. A pinned job with
	// dependencies is released back onto its pinned shard.
	Shard int
	// Tenant names the account the job is charged to; the empty string
	// selects the shared "default" account. Register weights with
	// Pool.Tenant to serve tenants in proportion under saturation;
	// unregistered tenants run at weight 1.
	Tenant string
	// Priority orders admission strictly: a waiting higher-priority job is
	// admitted before every lower-priority one, across all tenants, and the
	// runtime shrinks running lower-priority elastic jobs chunk by chunk to
	// free workers for it. 0 is the default class; negative priorities
	// yield to everything else.
	Priority int
	// Deadline is the job's completion deadline: the admission tie-break
	// within a priority class (earliest deadline first) and the preemption
	// trigger when it is at risk. The zero time means no deadline; missing
	// a deadline does not fail the job, it only increments the runtime's
	// deadline-missed counters.
	Deadline time.Time
	// After lists jobs that must complete before this one starts. The job is
	// held in a blocked state — outside the admission queue, invisible to
	// fair-share sizing and to cross-shard stealing — until the last
	// upstream's join wave releases it; on a sharded runtime the released
	// job is admitted to the least-loaded shard at release time. Canceling
	// an upstream cancels this job too: Wait returns an error matching
	// ErrCanceled that wraps the upstream's. See also Job.Then,
	// Job.ThenReduce and Pool.SubmitPipeline.
	After []*Job
	// NoWait makes the submission fail fast with an error matching
	// ErrBacklogged (instead of blocking for up to Config.MaxWait, or
	// indefinitely) when the admission queue is full. The returned Job
	// surfaces the error from Wait; SuggestedRetry extracts the hint.
	NoWait bool
	// Label tags the job in the runtime's statistics.
	Label string
}

// Submit starts body once per index in [0, n) asynchronously and returns a
// handle. Unlike the synchronous methods, Submit is safe from any number of
// goroutines: concurrent jobs share the pool's async team, partitioned among
// them without full barriers.
func (p *Pool) Submit(n int, body func(i int)) *Job {
	return p.SubmitOpts(n, JobOptions{}, body)
}

// SubmitOpts is Submit with per-job tuning options.
func (p *Pool) SubmitOpts(n int, o JobOptions, body func(i int)) *Job {
	return p.submit(o.Shard, o.After, jobs.Request{N: n, Body: func(w, low, high int) {
		for i := low; i < high; i++ {
			body(i)
		}
	}, MaxWorkers: o.MaxWorkers, Grain: o.Grain, Tenant: o.Tenant, Priority: o.Priority, Deadline: o.Deadline, NoWait: o.NoWait, Label: o.Label})
}

// SubmitFor is the asynchronous For: body receives a dense sub-team worker
// index — bounded by the job's worker caps and never reaching the pool size
// (size per-worker state by MaxWorkers if set, else by Workers()) — and
// contiguous chunk bounds. A sub-worker may receive several disjoint chunks
// as the elastic runtime rebalances work, and after elastic churn the ids
// seen over the job's lifetime may exceed its peak concurrent worker count.
func (p *Pool) SubmitFor(n int, body func(worker, low, high int)) *Job {
	return p.SubmitForOpts(n, JobOptions{}, body)
}

// SubmitForOpts is SubmitFor with per-job tuning options.
func (p *Pool) SubmitForOpts(n int, o JobOptions, body func(worker, low, high int)) *Job {
	return p.submit(o.Shard, o.After, jobs.Request{N: n, Body: body, MaxWorkers: o.MaxWorkers, Grain: o.Grain, Tenant: o.Tenant, Priority: o.Priority, Deadline: o.Deadline, NoWait: o.NoWait, Label: o.Label})
}

// SubmitReduce is the asynchronous ReduceFloat64: per-sub-worker partials
// are folded — in iteration order, inside the job's join wave — with
// combine. The result is available from Job.Result.
func (p *Pool) SubmitReduce(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return p.SubmitReduceOpts(n, JobOptions{}, identity, combine, body)
}

// SubmitReduceOpts is SubmitReduce with per-job tuning options. Setting
// o.Commutative allows the runtime to run the reduction elastically (chunked
// self-scheduling, partials folded in arrival order); leave it false when
// the combine is order-sensitive.
func (p *Pool) SubmitReduceOpts(n int, o JobOptions, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return p.submit(o.Shard, o.After, jobs.Request{
		N: n, RBody: body, Identity: identity, Combine: combine,
		Commutative: o.Commutative, MaxWorkers: o.MaxWorkers, Grain: o.Grain,
		Tenant: o.Tenant, Priority: o.Priority, Deadline: o.Deadline, NoWait: o.NoWait, Label: o.Label,
	})
}

// Then submits a dependent job: body runs over [0, n) only after j's join
// wave completes, and is canceled (with an error matching ErrCanceled) if j
// is canceled. It returns the dependent's handle, so linear pipelines chain:
//
//	last := pool.Submit(n, produce).Then(n, transform).Then(n, consume)
//	err := last.Wait()
func (j *Job) Then(n int, body func(i int)) *Job {
	return j.ThenOpts(n, JobOptions{}, body)
}

// ThenOpts is Then with per-job tuning options; j is prepended to o.After.
func (j *Job) ThenOpts(n int, o JobOptions, body func(i int)) *Job {
	if j.pool == nil {
		return &Job{err: fmt.Errorf("loopsched: Then on a zero Job")}
	}
	o.After = append([]*Job{j}, o.After...)
	return j.pool.SubmitOpts(n, o, body)
}

// ThenReduce submits a dependent reducing job (see SubmitReduce) that starts
// only after j completes and returns its handle; read the reduction from
// Result.
func (j *Job) ThenReduce(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return j.ThenReduceOpts(n, JobOptions{}, identity, combine, body)
}

// ThenReduceOpts is ThenReduce with per-job tuning options; j is prepended
// to o.After.
func (j *Job) ThenReduceOpts(n int, o JobOptions, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	if j.pool == nil {
		return &Job{err: fmt.Errorf("loopsched: ThenReduce on a zero Job")}
	}
	o.After = append([]*Job{j}, o.After...)
	return j.pool.SubmitReduceOpts(n, o, identity, combine, body)
}

// Stage describes one stage of a pipeline submitted with SubmitPipeline.
// Exactly one of Body, For and Reduce must be set.
type Stage struct {
	// N is the stage's iteration count.
	N int
	// Opts tunes the stage's job. Opts.After adds upstreams beyond the
	// previous stage (for joining side inputs into a pipeline).
	Opts JobOptions
	// Body is an element-wise loop body (the Submit shape).
	Body func(i int)
	// For is a chunked loop body (the SubmitFor shape).
	For func(worker, low, high int)
	// Reduce describes a reducing stage (the SubmitReduce shape).
	Reduce *ReduceStage
}

// ReduceStage is the reduction spec of a pipeline Stage.
type ReduceStage struct {
	Identity float64
	Combine  func(a, b float64) float64
	// Commutative declares Combine commutative, enabling elastic execution
	// (see JobOptions.Commutative).
	Commutative bool
	Body        func(worker, low, high int, acc float64) float64
}

// SubmitPipeline submits a linear chain of dependent stages in one call:
// stage i+1 starts only when stage i's join wave completes, without any
// client-side waiting in between — the completing worker releases the next
// stage inside the runtime. It returns one handle per stage, in order;
// waiting on the last handle waits for the whole pipeline, and canceling an
// early stage cancels everything after it. An invalid stage yields a failed
// handle whose error propagates down the remaining stages.
func (p *Pool) SubmitPipeline(stages ...Stage) []*Job {
	out := make([]*Job, len(stages))
	var prev *Job
	for i, st := range stages {
		o := st.Opts
		if prev != nil {
			o.After = append([]*Job{prev}, o.After...)
		}
		set := 0
		for _, ok := range []bool{st.Body != nil, st.For != nil, st.Reduce != nil} {
			if ok {
				set++
			}
		}
		var j *Job
		switch {
		case set != 1:
			j = p.failedJob(fmt.Errorf("loopsched: pipeline stage %d must set exactly one of Body, For and Reduce", i))
			// Thread the failure through the chain so later stages cancel.
			if prev != nil {
				j.err = fmt.Errorf("%w (after stage %d)", j.err, i-1)
			}
		case st.Body != nil:
			j = p.SubmitOpts(st.N, o, st.Body)
		case st.For != nil:
			j = p.SubmitForOpts(st.N, o, st.For)
		default:
			r := st.Reduce
			o.Commutative = o.Commutative || r.Commutative
			j = p.SubmitReduceOpts(st.N, o, r.Identity, r.Combine, r.Body)
		}
		out[i] = j
		prev = j
	}
	return out
}

// Group collects asynchronously submitted jobs for fan-out/fan-in: submit
// any number of loops from any goroutines, then Wait for all of them at
// once. The zero Group is not valid; obtain one from Pool.Group.
type Group struct {
	p  *Pool
	mu sync.Mutex
	js []*Job
}

// Group returns a new empty job group bound to the pool.
func (p *Pool) Group() *Group { return &Group{p: p} }

// add registers a job with the group and returns it.
func (g *Group) add(j *Job) *Job {
	g.mu.Lock()
	g.js = append(g.js, j)
	g.mu.Unlock()
	return j
}

// ForEach submits body over [0, n) as a job in the group.
func (g *Group) ForEach(n int, body func(i int)) *Job {
	return g.add(g.p.Submit(n, body))
}

// For submits a chunked loop as a job in the group.
func (g *Group) For(n int, body func(worker, low, high int)) *Job {
	return g.add(g.p.SubmitFor(n, body))
}

// Reduce submits a reducing loop as a job in the group; read its result from
// the returned handle after Wait.
func (g *Group) Reduce(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return g.add(g.p.SubmitReduce(n, identity, combine, body))
}

// Wait blocks until every job submitted through the group has completed and
// returns the first error encountered (in submission order). The group can
// keep accepting jobs while Wait runs; jobs added after Wait returns need a
// new Wait.
func (g *Group) Wait() error {
	g.mu.Lock()
	js := append([]*Job(nil), g.js...)
	g.mu.Unlock()
	var first error
	for _, j := range js {
		if err := j.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
