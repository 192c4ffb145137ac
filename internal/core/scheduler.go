package core

import (
	"math/rand/v2"
	"sync/atomic"

	"loopsched/internal/barrier"
	"loopsched/internal/iterspace"
	"loopsched/internal/pool"
	"loopsched/internal/sched"
	"loopsched/internal/trace"
)

// cmdKind distinguishes the commands the master publishes to the workers.
type cmdKind int

const (
	cmdNone cmdKind = iota
	cmdRun
	cmdShutdown
)

// reduceKind distinguishes the reduction folded into the join wave.
type reduceKind int

const (
	reduceNone reduceKind = iota
	reduceScalar
	reduceVec
	reduceCustom
)

// command is the work description the master publishes at the fork. It is
// written by the master strictly before the fork-side synchronisation and
// read by the workers strictly after it, so plain (non-atomic) fields are
// safe: the barrier's atomics provide the happens-before edge.
type command struct {
	kind    cmdKind
	n       int
	body    sched.Body
	rbody   sched.ReduceBody
	vbody   sched.VecBody
	reduce  reduceKind
	width   int
	ident   float64
	combine func(a, b float64) float64
	// custom is the caller-supplied view-combining function for
	// ForCombine: custom(into, from) folds worker `from`'s view (owned by
	// the caller) into worker `into`'s.
	custom func(into, from int)
	// dynamic marks a loop run on stealable ranges (see policy), claimed
	// chunk iterations at a time.
	dynamic bool
	chunk   int
}

// paddedF64 is a per-worker scalar reduction view on its own cache line.
type paddedF64 struct {
	v float64
	_ [120]byte
}

// Scheduler is the fine-grain half-barrier loop scheduler. Create one with
// New, run loops with For / ForReduce / ForReduceVec from a single master
// goroutine, and release the workers with Close. A Scheduler's methods are
// not safe for concurrent use by multiple masters: like the runtimes in the
// paper, the team belongs to one master.
type Scheduler struct {
	cfg  Config
	name string
	p    int

	team *pool.Team

	// Synchronisation substrate. half is used in ModeHalf; full (plus
	// fullCombine when available) in ModeFull. Both point at the same
	// underlying barrier object.
	half        barrier.HalfPair
	full        barrier.Full
	fullCombine interface {
		WaitCombine(w int, combine func(into, from int))
	}

	cmd command

	// Reduction views, owned one per worker and padded against false
	// sharing. vecViews are (re)allocated when the requested width grows.
	scalarViews []paddedF64
	vecViews    [][]float64

	// Stealing policy state, allocated only with Config.Steal: one
	// stealable range and random source per worker, and the iterations of
	// the active stealing loop not yet run. coarse is the loop size at
	// which stealing starts and chunk a fixed chunk size (0: chunkFor's
	// rule); only tests set them to anything but the defaults.
	ranges      []stealRange
	rngs        []*rand.Rand
	outstanding atomic.Int64
	coarse      int
	chunk       int

	counters *trace.Counters
	closed   bool
}

// New creates and starts a fine-grain scheduler with the given
// configuration. The calling goroutine becomes the master (worker 0).
func New(cfg Config) *Scheduler {
	p, topo := cfg.normalize()
	s := &Scheduler{
		cfg:         cfg,
		name:        cfg.defaultName(),
		p:           p,
		scalarViews: make([]paddedF64, p),
		vecViews:    make([][]float64, p),
		counters:    trace.New(),
		coarse:      coarseThreshold,
	}
	if cfg.Steal {
		s.ranges = make([]stealRange, p)
		s.rngs = make([]*rand.Rand, p)
		for w := range s.rngs {
			s.rngs[w] = rand.New(rand.NewPCG(uint64(w), 17))
		}
	}
	switch cfg.Barrier {
	case BarrierCentralized:
		b := barrier.NewCentralized(p)
		s.half, s.full = b, b
	default:
		shape := topo.GroupedTree(cfg.InnerFanout, cfg.OuterFanout)
		t := barrier.NewTree(shape)
		s.half, s.full, s.fullCombine = t, t, t
	}
	s.team = pool.New(pool.Config{Workers: p, LockOSThread: cfg.LockOSThread, Name: s.name})
	s.team.Start(s.workerLoop)
	return s
}

// NewDefault creates a scheduler with DefaultConfig.
func NewDefault() *Scheduler { return New(DefaultConfig()) }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// P implements sched.Scheduler.
func (s *Scheduler) P() int { return s.p }

// Counters returns the scheduler's event counters (never nil).
func (s *Scheduler) Counters() *trace.Counters { return s.counters }

// Config returns the configuration the scheduler was built with (after
// normalisation).
func (s *Scheduler) Config() Config { return s.cfg }

// workerLoop is the body run by workers 1..P-1. Each iteration waits for the
// master's fork signal, executes the worker's static share of the published
// loop, and announces completion through the join-side synchronisation.
func (s *Scheduler) workerLoop(w int) {
	for {
		// Fork side: in half mode this is a pure release wave (no waiting
		// for siblings); in full mode it is a complete barrier.
		if s.cfg.Mode == ModeHalf {
			s.half.Release(w)
		} else {
			s.full.Wait(w)
		}
		c := s.cmd
		if c.kind == cmdShutdown {
			return
		}
		s.runShare(w, &c)
		s.joinWorker(w, &c)
	}
}

// runShare executes worker w's static block of the published loop (or, for
// a stealing loop, its stealable range) and, for reducing loops, deposits
// the partial result in the worker's view.
func (s *Scheduler) runShare(w int, c *command) {
	if c.dynamic {
		s.runStolen(w, c)
		return
	}
	r := iterspace.Block(c.n, s.p, w)
	switch c.reduce {
	case reduceScalar:
		acc := c.ident
		if !r.Empty() {
			acc = c.rbody(w, r.Begin, r.End, acc)
		}
		s.scalarViews[w].v = acc
	case reduceVec:
		// Zero only the active width: the retained view may be much wider
		// after an earlier wide ForReduceVec, and the join wave only ever
		// reads buf[:width].
		buf := s.vecViews[w][:c.width]
		for i := range buf {
			buf[i] = 0
		}
		if !r.Empty() {
			c.vbody(w, r.Begin, r.End, buf)
		}
	default:
		if !r.Empty() {
			c.body(w, r.Begin, r.End)
		}
	}
}

// combineScalar folds worker `from`'s scalar view into worker `into`'s, in
// the order guaranteed by the join wave (increasing worker index).
func (s *Scheduler) combineScalar(into, from int) {
	s.scalarViews[into].v = s.cmd.combine(s.scalarViews[into].v, s.scalarViews[from].v)
	s.counters.Inc(trace.Reductions)
}

// combineVec folds worker `from`'s vector view into worker `into`'s.
func (s *Scheduler) combineVec(into, from int) {
	sched.SumVec(s.vecViews[into][:s.cmd.width], s.vecViews[from][:s.cmd.width])
	s.counters.Inc(trace.Reductions)
}

// combineCustom invokes the caller-supplied view fold.
func (s *Scheduler) combineCustom(into, from int) {
	s.cmd.custom(into, from)
	s.counters.Inc(trace.Reductions)
}

// joinWorker performs the join-side synchronisation for a non-master worker.
func (s *Scheduler) joinWorker(w int, c *command) {
	cb := s.combineFor(c)
	switch {
	case s.cfg.Mode == ModeHalf && cb != nil:
		s.half.JoinCombine(w, cb)
	case s.cfg.Mode == ModeHalf:
		s.half.Join(w)
	case cb != nil && s.fullCombine != nil:
		s.fullCombine.WaitCombine(w, cb)
	default:
		s.full.Wait(w)
	}
}

// combineFor selects the join-wave combine callback for a command, or nil
// for loops without a reduction.
func (s *Scheduler) combineFor(c *command) func(into, from int) {
	switch c.reduce {
	case reduceScalar:
		return s.combineScalar
	case reduceVec:
		return s.combineVec
	case reduceCustom:
		return s.combineCustom
	default:
		return nil
	}
}

// fork publishes the command and performs the master's fork-side
// synchronisation.
func (s *Scheduler) fork(c command) {
	s.cmd = c
	s.counters.Inc(trace.ForkPhases)
	if s.cfg.Mode == ModeHalf {
		s.half.Release(0)
	} else {
		s.full.Wait(0)
		s.counters.Inc(trace.BarrierEpisodes)
	}
}

// joinMaster performs the master's join-side synchronisation and returns
// once every worker has completed its share.
func (s *Scheduler) joinMaster(c *command) {
	s.counters.Inc(trace.JoinPhases)
	cb := s.combineFor(c)
	switch {
	case s.cfg.Mode == ModeHalf && cb != nil:
		s.half.JoinCombine(0, cb)
	case s.cfg.Mode == ModeHalf:
		s.half.Join(0)
	case cb != nil && s.fullCombine != nil:
		s.fullCombine.WaitCombine(0, cb)
		s.counters.Inc(trace.BarrierEpisodes)
	default:
		s.full.Wait(0)
		s.counters.Inc(trace.BarrierEpisodes)
		// Barrier without a combining join (centralized, full mode): fold
		// the views serially after the barrier, in worker order. The barrier
		// provides the happens-before edge for the view writes.
		if cb != nil {
			for w := 1; w < s.p; w++ {
				cb(0, w)
			}
		}
	}
}

// runLoop publishes a loop, executes the master's share and waits for the
// workers. Single-worker schedulers bypass synchronisation entirely but still
// count one (degenerate) fork and join phase, so the structural counters the
// tests and ablations rely on are independent of the machine size.
func (s *Scheduler) runLoop(c command) {
	s.mustOpen()
	s.counters.Inc(trace.LoopsScheduled)
	if s.p == 1 {
		s.cmd = c
		s.counters.Inc(trace.ForkPhases)
		s.runShare(0, &c)
		s.counters.Inc(trace.JoinPhases)
		return
	}
	s.fork(c)
	s.runShare(0, &c)
	s.joinMaster(&c)
}

// For implements sched.Scheduler: it executes body over [0, n) with static
// block partitioning, one contiguous block per worker, or on stealable
// ranges when the scheduler steals and the loop is coarse.
func (s *Scheduler) For(n int, body sched.Body) {
	if n <= 0 {
		return
	}
	c := command{kind: cmdRun, n: n, body: body}
	s.policy(&c)
	s.runLoop(c)
}

// ForReduce implements sched.Scheduler: a reducing loop whose per-worker
// partial results are folded into the join wave (half mode) or the join
// barrier (full mode), using exactly P-1 combine operations in worker order.
// It never steals: the ordered combine needs each worker's block.
func (s *Scheduler) ForReduce(n int, identity float64, combine func(a, b float64) float64, body sched.ReduceBody) float64 {
	if n <= 0 {
		return identity
	}
	c := command{kind: cmdRun, n: n, rbody: body, reduce: reduceScalar, ident: identity, combine: combine}
	s.runLoop(c)
	return s.scalarViews[0].v
}

// ForReduceVec implements sched.Scheduler: a loop reducing element-wise into
// a vector of `width` float64s. The sums are commutative, so coarse loops
// steal like For.
func (s *Scheduler) ForReduceVec(n, width int, body sched.VecBody) []float64 {
	out := make([]float64, width)
	if n <= 0 || width <= 0 {
		return out
	}
	s.ensureVecViews(width)
	c := command{kind: cmdRun, n: n, vbody: body, reduce: reduceVec, width: width}
	s.policy(&c)
	s.runLoop(c)
	copy(out, s.vecViews[0][:width])
	return out
}

// ForCombine executes body over [0, n) with static block partitioning (it
// never steals) and, during the join wave, folds caller-owned per-worker
// views in iteration order by invoking combine(into, from) exactly P-1
// times (none when combine is nil). It is the building block for
// reductions over arbitrary (non-float64) view types — the statically
// allocated Cilk-reducer replacement exposed by the public loop package —
// while keeping the reduction merged into the half-barrier.
//
// The caller must ensure body(w, ...) only writes worker w's view and that
// combine(into, from) only touches those two views; the join wave provides
// the required happens-before edges.
func (s *Scheduler) ForCombine(n int, body sched.Body, combine func(into, from int)) {
	if n <= 0 {
		return
	}
	c := command{kind: cmdRun, n: n, body: body}
	if combine != nil {
		c.reduce, c.custom = reduceCustom, combine
	}
	s.runLoop(c)
}

// ensureVecViews grows the per-worker vector views to at least width
// elements. Master-only; called before the fork, so workers never observe a
// partially grown view.
func (s *Scheduler) ensureVecViews(width int) {
	if len(s.vecViews[0]) >= width {
		return
	}
	for w := range s.vecViews {
		s.vecViews[w] = make([]float64, width)
	}
}

// Close shuts the team down: the workers are released from their wait loops
// and their goroutines exit. Close is idempotent.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.p > 1 {
		s.cmd = command{kind: cmdShutdown}
		if s.cfg.Mode == ModeHalf {
			s.half.Release(0)
		} else {
			s.full.Wait(0)
		}
	}
	s.team.Wait()
}

func (s *Scheduler) mustOpen() {
	if s.closed {
		panic("core: scheduler used after Close")
	}
}

var _ sched.Scheduler = (*Scheduler)(nil)
