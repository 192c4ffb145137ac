package jobs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/barrier"
	"loopsched/internal/topology"
	"loopsched/internal/trace"
)

// ShardedConfig configures a Sharded pool. The embedded Config applies to
// every shard, except that Workers is the *total* worker count (partitioned
// across shards along topology groups) and QueueDepth is the total admission
// budget (split evenly).
type ShardedConfig struct {
	Config
	// Shards is the number of per-domain shards; <= 0 derives it from the
	// machine topology (one shard per cache/socket group, so a machine that
	// fits one group gets exactly one shard). It is clamped to the worker
	// count: every shard owns at least one worker.
	Shards int
	// StealInterval is how often a fully idle shard re-scans its siblings
	// for queued jobs to steal or running elastic jobs to lend workers to;
	// <= 0 selects 200µs. Larger intervals reduce idle wake-ups at the cost
	// of slower work conservation under skew.
	StealInterval time.Duration
	// DisableStealing turns off cross-shard stealing and lending: shards
	// become fully independent pools behind one router. It exists for
	// comparison (the shardburst benchmark measures stealing against it).
	DisableStealing bool
}

func (c *ShardedConfig) normalize() {
	c.Config.normalize()
	if c.Shards <= 0 {
		c.Shards = topology.Detect(c.Workers).NumGroups
	}
	if c.Shards > c.Workers {
		c.Shards = c.Workers
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 200 * time.Microsecond
	}
}

// Sharded partitions one worker set into per-topology-domain shards, each a
// full Scheduler with its own dispatcher event loop, behind a lightweight
// router. Submitted jobs are admitted to the least-loaded shard (or pinned
// with SubmitTo); an idle shard steals whole queued jobs from loaded siblings
// and lends workers to their running under-provisioned elastic jobs, so
// utilization stays high under skewed tenant mixes without any scheduler-wide
// serialization point: the shards share no lock, no queue and no barrier —
// only per-job atomics during migration.
type Sharded struct {
	cfg    ShardedConfig
	topo   topology.Topology
	shards []*Scheduler

	// adm is the pool-wide admission-control state (see admission.go),
	// shared by every shard through the unexported Config.admission field:
	// a tenant's circuit breaker opens and closes for the whole pool, and
	// the breaker check runs here — before cross-shard routing — so a shed
	// submission costs no routing scan.
	adm *admissionState

	// ready gates the steal hooks until every shard exists: shard 0's
	// dispatcher starts before shard 1 is constructed.
	ready atomic.Bool
	// stealOff disables cross-shard traffic during teardown, so a stolen job
	// can never land on a shard that is already closing.
	stealOff atomic.Bool
	// rr is bumped by every submit (routeFor) AND by every idle dispatcher's
	// steal/lend scan; padded so the submit hot path never shares a cache
	// line with the migration seqlock below.
	rr barrier.PaddedUint64

	// migrateBegin/migrateEnd bracket every cross-shard counter migration:
	// a steal (a queued job's depth moves between shards) and a dependency
	// release (a job leaves one shard's blocked gauge for another shard's
	// queue depth). Stats uses them as a seqlock: a snapshot taken while
	// begin != end, or during which begin advanced, may be torn — counting
	// a migrating job on two shards or on neither — and is retried. Each is
	// padded: Stats readers spin on them while stealers write them.
	migrateBegin barrier.PaddedUint64
	migrateEnd   barrier.PaddedUint64

	closeMu sync.Mutex
	closed  bool
}

// NewSharded creates and starts a sharded pool.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.normalize()
	groupSize := (cfg.Workers + cfg.Shards - 1) / cfg.Shards
	p := &Sharded{
		cfg:    cfg,
		topo:   topology.New(cfg.Workers, groupSize),
		shards: make([]*Scheduler, 0, cfg.Shards),
	}
	perQueue := (cfg.QueueDepth + cfg.Shards - 1) / cfg.Shards
	if perQueue < 1 {
		perQueue = 1
	}
	// One admission state for the whole pool: breakers trip on pool-wide
	// deadline outcomes and the queue-share guard sees all shards.
	p.adm = newAdmissionState(cfg.Config)
	p.adm.share = func(tenant string) float64 {
		var own, total int64
		for _, s := range p.shards {
			own += s.fq.depthOf(tenant)
			total += s.depth.Load()
		}
		if total <= 0 {
			return 0
		}
		return float64(own) / float64(total)
	}
	for g := 0; g < p.topo.NumGroups; g++ {
		sc := cfg.Config
		sc.Workers = len(p.topo.GroupMembers(g))
		sc.QueueDepth = perQueue
		sc.Name = fmt.Sprintf("%s-shard%d", cfg.Name, g)
		sc.pool = p
		sc.admission = p.adm
		// Every shard shares the pool's tracer (inherited through the Config
		// copy) and stamps its own index on the events it emits.
		sc.shard = g
		if !cfg.DisableStealing && cfg.Shards > 1 {
			sc.hooks = &stealHooks{
				totalP:   cfg.Workers,
				interval: cfg.StealInterval,
				steal:    p.stealFor,
				lend:     p.lendFor,
			}
		}
		p.shards = append(p.shards, New(sc))
	}
	// Rounding the group size up can merge the tail: the actual shard count
	// is the topology's group count.
	p.cfg.Shards = len(p.shards)
	p.ready.Store(true)
	return p
}

// Shards returns the number of shards.
func (p *Sharded) Shards() int { return len(p.shards) }

// P returns the total worker count across all shards.
func (p *Sharded) P() int { return p.cfg.Workers }

// Name returns the pool's diagnostic name.
func (p *Sharded) Name() string { return p.cfg.Name }

// Shard returns the i'th shard scheduler (for stats and tests).
func (p *Sharded) Shard(i int) *Scheduler { return p.shards[i] }

// Topology returns the topology the shards were placed on.
func (p *Sharded) Topology() topology.Topology { return p.topo }

// routeFor picks the admission shard for one of the named tenant's jobs:
// primarily the least-loaded shard (fewest jobs waiting or running per
// worker), with load ties broken by where the tenant has the fewest jobs
// already queued — spreading one tenant's burst across shards keeps the
// per-shard weighted-fair queues short for everyone else — and finally
// round-robin so a burst that arrives on an idle pool spreads instead of
// piling onto shard 0.
func (p *Sharded) routeFor(tenant string) *Scheduler {
	n := len(p.shards)
	if n == 1 {
		return p.shards[0]
	}
	start := int(p.rr.Add(1) % uint64(n))
	best := p.shards[start]
	bestLoad := shardLoad(best)
	bestTenant := best.fq.depthOf(tenant)
	for k := 1; k < n; k++ {
		s := p.shards[(start+k)%n]
		l := shardLoad(s)
		if l > bestLoad {
			continue
		}
		td := s.fq.depthOf(tenant)
		if l < bestLoad || td < bestTenant {
			best, bestLoad, bestTenant = s, l, td
		}
	}
	return best
}

// shardLoad scores a shard for admission routing: queued tenants dominate
// (a job behind a queue waits a full job, not a chunk), then occupancy, both
// normalized by the shard's team size.
func shardLoad(s *Scheduler) float64 {
	return (float64(s.depth.Load())*4 + float64(s.running.Load()) + float64(s.busy.Load())) / float64(s.p)
}

// Submit enqueues a job on the least-loaded shard and returns immediately.
// It blocks only when that shard's admission queue is full, bounded by
// Config.MaxWait/Request.NoWait; with the breakers armed an open tenant
// breaker sheds the submission here, before any routing work. Safe from any
// number of goroutines.
func (p *Sharded) Submit(req Request) (*Job, error) {
	if err := p.shedAtIntake(&req); err != nil {
		return nil, err
	}
	return p.routeFor(req.Tenant).Submit(req)
}

// shedAtIntake runs the pool-level breaker check for one submission: the
// cheap pre-routing half of admission control (the feasibility and
// bounded-wait checks need a shard's queue view and run after routing).
func (p *Sharded) shedAtIntake(req *Request) error {
	if !p.adm.breakersOn() {
		return nil
	}
	tenant := tenantName(req.Tenant)
	retry, ok := p.adm.allow(tenant, time.Now())
	if ok {
		return nil
	}
	if p.cfg.Tracer != nil {
		tr := p.cfg.Tracer.Begin(tenant, req.Label, req.Priority)
		tr.Event(trace.EvSubmitted, 0, 0, "")
		tr.Event(trace.EvShed, 0, 0, "breaker")
	}
	return &OverloadError{Err: ErrBreakerOpen, RetryAfter: retry}
}

// SubmitBatch admits len(reqs) independent jobs in one call, filling out[i]
// with the job for reqs[i]. The whole batch is routed to ONE shard — chosen
// by the routing policy for the first request's tenant — so a single
// fair-queue lock acquisition admits all of it; sibling shards rebalance by
// stealing whole jobs as usual if the batch outruns the shard. See
// (*Scheduler).SubmitBatch for the request restrictions (no After edges) and
// the partial-failure contract.
func (p *Sharded) SubmitBatch(reqs []Request, out []*Job) error {
	if len(reqs) == 0 {
		return nil
	}
	return p.routeFor(tenantName(reqs[0].Tenant)).SubmitBatch(reqs, out)
}

// SetTenantWeight registers (or re-weights) a tenant's fair-share weight on
// every shard; weights < 1 are clamped to 1. Safe for concurrent use.
func (p *Sharded) SetTenantWeight(name string, weight int) {
	for _, s := range p.shards {
		s.SetTenantWeight(name, weight)
	}
}

// SubmitTo pins a job to the given shard (for tenants with domain-local
// state). The job can still be stolen by an idle sibling unless stealing is
// disabled; pinning controls admission, not execution exclusivity. A pinned
// job with dependencies re-enters the pinned shard's own queue when its
// upstreams release it, instead of routing to the least-loaded shard.
func (p *Sharded) SubmitTo(shard int, req Request) (*Job, error) {
	if shard < 0 || shard >= len(p.shards) {
		return nil, fmt.Errorf("jobs: shard %d out of range [0,%d)", shard, len(p.shards))
	}
	if err := p.shedAtIntake(&req); err != nil {
		return nil, err
	}
	return p.shards[shard].submitPinned(req)
}

// stealFor pulls one whole queued job from the most convenient loaded
// sibling and migrates it onto thief (see migrate). Runs on thief's
// dispatcher goroutine.
func (p *Sharded) stealFor(thief *Scheduler) *Job {
	if !p.ready.Load() || p.stealOff.Load() {
		return nil
	}
	n := len(p.shards)
	start := int(p.rr.Add(1) % uint64(n))
	for k := 0; k < n; k++ {
		victim := p.shards[(start+k)%n]
		if victim == thief || victim.depth.Load() == 0 {
			continue
		}
		j := victim.stealQueued()
		if j == nil {
			continue
		}
		if p.migrate(j, victim, thief) {
			return j
		}
	}
	return nil
}

// lendFor finds a running under-provisioned elastic job on a sibling shard
// for thief to lend idle workers to. Runs on thief's dispatcher goroutine.
func (p *Sharded) lendFor(thief *Scheduler) *Job {
	if !p.ready.Load() || p.stealOff.Load() {
		return nil
	}
	n := len(p.shards)
	start := int(p.rr.Add(1) % uint64(n))
	for k := 0; k < n; k++ {
		victim := p.shards[(start+k)%n]
		if victim == thief {
			continue
		}
		if j := victim.lendableJob(); j != nil {
			return j
		}
	}
	return nil
}

// Close drains every shard and releases all workers. Jobs submitted before
// Close complete normally (including jobs mid-steal and foreign jobs still
// running on lent workers); Submit fails with ErrClosed afterwards. Close is
// idempotent and safe to call concurrently: every call returns only after
// the teardown has completed.
func (p *Sharded) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closed {
		return
	}
	// Stop cross-shard traffic first: once a shard is closed its sibling
	// must not re-home jobs onto it.
	p.stealOff.Store(true)
	for _, s := range p.shards {
		s.Close()
	}
	p.closed = true
}

// ShardedStats is a snapshot of the whole sharded pool: the merged totals
// plus each shard's own snapshot, in shard order.
type ShardedStats struct {
	// Total aggregates all shards: counters and latency histograms are
	// summed, and the quantiles come from the sum of the shards' windows.
	Total Stats `json:"total"`
	// Shards holds each shard's snapshot (index = shard id = topology group).
	Shards []Stats `json:"shards"`
}

// Stats returns a snapshot of all shards and the merged totals. The
// snapshot is consistent with respect to cross-shard steals and dependency
// releases: a job mid-migration would otherwise be counted on both shards
// or on neither (whichever side the walk visits first), so the walk is
// bracketed by the migration seqlock and retried on a torn read.
func (p *Sharded) Stats() ShardedStats {
	for attempt := 0; ; attempt++ {
		// Read end before begin: an in-flight migration then shows up as
		// begin > end no matter how the loads interleave with it.
		e := p.migrateEnd.Load()
		b := p.migrateBegin.Load()
		out := p.statsSnapshot()
		if b == e && p.migrateBegin.Load() == b {
			return out
		}
		if attempt >= 64 {
			// Continuous migration traffic: a torn depth (off by one job)
			// beats never returning.
			return out
		}
		runtime.Gosched()
	}
}

// statsSnapshot walks the shards and merges totals without any exclusion;
// consistency against in-flight migrations is the caller's (Stats's)
// responsibility via the seqlock.
func (p *Sharded) statsSnapshot() ShardedStats {
	out := ShardedStats{Shards: make([]Stats, len(p.shards))}
	var win ledgerSnap
	for i, s := range p.shards {
		st := s.Stats()
		out.Shards[i] = st
		out.Total.Workers += st.Workers
		out.Total.BusyWorkers += st.BusyWorkers
		out.Total.QueueDepth += st.QueueDepth
		out.Total.Running += st.Running
		out.Total.Submitted += st.Submitted
		out.Total.Canceled += st.Canceled
		out.Total.IterationsDone += st.IterationsDone
		out.Total.Grown += st.Grown
		out.Total.Peeled += st.Peeled
		out.Total.Stolen += st.Stolen
		out.Total.Lent += st.Lent
		out.Total.BlockedDepth += st.BlockedDepth
		out.Total.Released += st.Released
		out.Total.DepCanceled += st.DepCanceled
		out.Total.Preempted += st.Preempted
		out.Total.DeadlineMissed += st.DeadlineMissed
		out.Total.ShedTotal += st.ShedTotal
		out.Total.InfeasibleTotal += st.InfeasibleTotal
		out.Total.BackloggedTotal += st.BackloggedTotal
		out.Total.SuspendedDepth += st.SuspendedDepth
		out.Total.SuspendedTotal += st.SuspendedTotal
		out.Total.ResumedTotal += st.ResumedTotal
		out.Total.CheckpointWrites += st.CheckpointWrites
		out.Total.CheckpointFailures += st.CheckpointFailures
		// Per-tenant accounting merges across shards: counters sum (a job
		// stolen mid-queue is submitted on one shard and completes on
		// another, so only the pool-wide sums reconcile); the weight is the
		// registered value, identical on every shard that has seen it.
		for name, ts := range st.Tenants {
			if out.Total.Tenants == nil {
				out.Total.Tenants = make(map[string]TenantStats)
			}
			agg := out.Total.Tenants[name]
			if ts.Weight > agg.Weight {
				agg.Weight = ts.Weight
			}
			agg.QueueDepth += ts.QueueDepth
			agg.Submitted += ts.Submitted
			agg.Completed += ts.Completed
			agg.IterationsDone += ts.IterationsDone
			agg.Preempted += ts.Preempted
			agg.DeadlineMissed += ts.DeadlineMissed
			agg.DeadlineJobsTotal += ts.DeadlineJobsTotal
			agg.WaitSumSeconds += ts.WaitSumSeconds
			agg.RunSumSeconds += ts.RunSumSeconds
			agg.win = agg.win.add(ts.win)
			out.Total.Tenants[name] = agg
		}
		out.Total.Latency = out.Total.Latency.Add(st.Latency)
		out.Total.Run = out.Total.Run.Add(st.Run)
		win = win.add(st.win)
	}
	out.Total.setLatency(out.Total.Latency, out.Total.Run, win)
	for name, agg := range out.Total.Tenants {
		agg.SLO = buildTenantSLO(p.cfg.SLOTarget, agg.win)
		out.Total.Tenants[name] = agg
	}
	// The admission layer's ledger merges only into the totals: breaker
	// sheds happen before routing (no shard owns them), and the per-tenant
	// shed counters and breaker states are pool-wide by construction.
	out.Total.ShedTotal += p.adm.breakerShed.Load()
	out.Total.Tenants = p.adm.fillTenantStats(out.Total.Tenants)
	return out
}
