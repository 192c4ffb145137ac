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
// bench_test.go; library users only need this package. A Pool always runs
// the paper's tree half-barrier: the ablations (full barriers, the
// centralized barrier, tree fan-outs) run through internal/core in
// cmd/burden, and the async jobs runtime's knobs (grain, shards, overload
// protection) are jobs.Config fields, set from loopd's flags.
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

// Config configures a Pool. The zero value selects the defaults: all
// available processors, workers locked to OS threads, tracing off.
type Config struct {
	// Workers is the team size including the caller; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// DisableThreadLock keeps workers as ordinary goroutines instead of
	// locking them to OS threads. Locking is the default because it gives
	// the scheduler stable worker identities; disable it when creating many
	// short-lived pools (for example, in tests).
	DisableThreadLock bool
	// Trace enables lifecycle tracing on the async runtime: every job
	// records a span of its transitions (submit, admission, dispatch,
	// elastic churn, join) and finished traces are kept in a ring queryable
	// through Pool.Tracer. Tracing off costs one nil check per transition.
	Trace bool
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
}

// maxFreeHandles bounds the public handle freelist.
const maxFreeHandles = 1024

// New creates a pool. Call Close to release its workers.
func New(cfg Config) *Pool {
	s := core.New(core.Config{Workers: cfg.Workers, LockOSThread: !cfg.DisableThreadLock})
	var tracer *trace.Tracer
	if cfg.Trace {
		tracer = trace.NewTracer(0)
	}
	// The async team is never locked to OS threads: unlike the synchronous
	// team's spin-waiting workers, jobs workers park on channels between
	// jobs, and pinning a second P threads would only oversubscribe the
	// machine.
	return &Pool{
		s: s,
		asyncCfg: jobs.ShardedConfig{
			Config: jobs.Config{Workers: s.P(), Tracer: tracer, Name: "async-" + s.Name()},
			Shards: 1,
		},
	}
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
	return fmt.Sprintf("loopsched.Pool{workers=%d, tree, half-barrier}", p.s.P())
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
	// ErrBacklogged is returned at submission when the admission queue is
	// full and JobOptions.NoWait was set. Carries a retry hint — see
	// SuggestedRetry.
	ErrBacklogged = jobs.ErrBacklogged
)

// SuggestedRetry extracts the retry-after hint from an ErrBacklogged
// rejection: the delay after which the submission is next expected to be
// admittable. ok is false when err carries no hint.
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
// false for terminal or blocked jobs; true (idempotently) for one already
// suspended. A suspended job holds no workers and its Wait
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

// submit translates the options onto a runtime request whose N and body
// fields the caller set, and routes it to the async runtime. The options'
// upstreams become dependency edges; a dependent of a job that never made it
// past submission fails immediately with the upstream's error wrapped under
// ErrCanceled, mirroring runtime cancel propagation.
func (p *Pool) submit(o JobOptions, req jobs.Request) *Job {
	req.MaxWorkers, req.Grain, req.Commutative = o.MaxWorkers, o.Grain, o.Commutative
	req.Tenant, req.Priority, req.Deadline = o.Tenant, o.Priority, o.Deadline
	req.NoWait, req.Label = o.NoWait, o.Label
	for _, u := range o.After {
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
	j, err := rt.Submit(req)
	if err != nil {
		return p.failedJob(err)
	}
	return p.handle(j, nil)
}

// JobOptions tunes one asynchronously submitted job. The zero value selects
// the defaults.
type JobOptions struct {
	// MaxWorkers caps the job's sub-team size; <= 0 means no cap beyond the
	// runtime's own limits.
	MaxWorkers int
	// Grain is the self-scheduling chunk size in iterations — the smallest
	// unit of work worth one atomic claim, and the minimum share a
	// sub-worker is admitted for. <= 0 selects a per-job heuristic (roughly
	// 8 chunks per sub-team member).
	Grain int
	// Commutative declares a reducing job's combine commutative (and its
	// identity a true identity), letting each sub-worker fold all its chunks
	// into one partial and the join wave fold those in arrival order. Leave
	// it false for ordered (non-commutative) reductions: each chunk's
	// partial is then kept and folded in iteration order, so the result
	// depends only on n and the chunk size.
	Commutative bool
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
	// held in a blocked state — outside the admission queue and invisible to
	// fair-share sizing — until the last upstream's join wave releases it.
	// Canceling
	// an upstream cancels this job too: Wait returns an error matching
	// ErrCanceled that wraps the upstream's. See also Job.Then,
	// Job.ThenReduce and Pool.SubmitPipeline.
	After []*Job
	// NoWait makes the submission fail fast with an error matching
	// ErrBacklogged (instead of blocking until a slot frees) when the
	// admission queue is full. The returned Job
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
	return p.submit(o, jobs.Request{N: n, Body: func(w, low, high int) {
		for i := low; i < high; i++ {
			body(i)
		}
	}})
}

// SubmitFor is the asynchronous For: body receives a dense sub-team worker
// index — bounded by the job's worker caps and never reaching the pool size
// (size per-worker state by MaxWorkers if set, else by Workers()) — and
// contiguous chunk bounds. A sub-worker may receive several disjoint chunks
// as the elastic runtime rebalances work, and after elastic churn the ids
// seen over the job's lifetime may exceed its peak concurrent worker count.
func (p *Pool) SubmitFor(n int, body func(worker, low, high int)) *Job {
	return p.submit(JobOptions{}, jobs.Request{N: n, Body: body})
}

// SubmitReduce is the asynchronous ReduceFloat64: per-chunk partials are
// folded — in iteration order, inside the job's join wave — with combine.
// The result is available from Job.Result.
func (p *Pool) SubmitReduce(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return p.SubmitReduceOpts(n, JobOptions{}, identity, combine, body)
}

// SubmitReduceOpts is SubmitReduce with per-job tuning options. Setting
// o.Commutative lets the runtime fold one partial per sub-worker in arrival
// order instead of one per chunk in iteration order; leave it false when
// the combine is order-sensitive.
func (p *Pool) SubmitReduceOpts(n int, o JobOptions, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	return p.submit(o, jobs.Request{N: n, RBody: body, Identity: identity, Combine: combine})
}

// Then submits a dependent job: body runs over [0, n) only after j's join
// wave completes, and is canceled (with an error matching ErrCanceled) if j
// is canceled. It returns the dependent's handle, so linear pipelines chain:
//
//	last := pool.Submit(n, produce).Then(n, transform).Then(n, consume)
//	err := last.Wait()
func (j *Job) Then(n int, body func(i int)) *Job {
	if j.pool == nil {
		return &Job{err: fmt.Errorf("loopsched: Then on a zero Job")}
	}
	return j.pool.SubmitOpts(n, JobOptions{After: []*Job{j}}, body)
}

// ThenReduce submits a dependent reducing job (see SubmitReduce) that starts
// only after j completes and returns its handle; read the reduction from
// Result.
func (j *Job) ThenReduce(n int, identity float64, combine func(a, b float64) float64, body func(worker, low, high int, acc float64) float64) *Job {
	if j.pool == nil {
		return &Job{err: fmt.Errorf("loopsched: ThenReduce on a zero Job")}
	}
	return j.pool.SubmitReduceOpts(n, JobOptions{After: []*Job{j}}, identity, combine, body)
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
	// Commutative declares Combine commutative, allowing arrival-order
	// folding (see JobOptions.Commutative).
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
			j = p.submit(o, jobs.Request{N: st.N, Body: st.For})
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
