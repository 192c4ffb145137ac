package core

import (
	"sync"
	"sync/atomic"

	"loopsched/internal/iterspace"
	"loopsched/internal/spin"
	"loopsched/internal/trace"
)

// The stealing iteration policy (Config.Steal). A loop of at least
// coarseThreshold iterations deals each worker its static block as a
// stealable range; the worker claims chunks of
// max(minStealChunk, n/(stealChunksPerWorker·P)) iterations from its front.
const (
	coarseThreshold      = 8192
	minStealChunk        = 64
	stealChunksPerWorker = 64
)

// stealRange is a worker-owned remaining iteration range that thieves can
// split. The owner claims chunks from the front; a thief steals the back
// half. A mutex keeps the invariant simple; the critical section is a few
// arithmetic operations. The bounds are written only under the mutex, but
// atomically, so stealable can read them without it.
type stealRange struct {
	mu    sync.Mutex
	begin atomic.Int64
	end   atomic.Int64
	_     [96]byte
}

// take claims up to chunk iterations from the front, returning an empty
// range when exhausted.
func (r *stealRange) take(chunk int) iterspace.Range {
	r.mu.Lock()
	defer r.mu.Unlock()
	begin, end := int(r.begin.Load()), int(r.end.Load())
	if begin >= end {
		return iterspace.Range{}
	}
	out := iterspace.Range{Begin: begin, End: min(begin+chunk, end)}
	r.begin.Store(int64(out.End))
	return out
}

// stealHalf removes and returns the back half of the remaining range (empty
// if fewer than two iterations remain).
func (r *stealRange) stealHalf() iterspace.Range {
	r.mu.Lock()
	defer r.mu.Unlock()
	begin, end := int(r.begin.Load()), int(r.end.Load())
	if end-begin < 2 {
		return iterspace.Range{}
	}
	out := iterspace.Range{Begin: begin + (end-begin)/2, End: end}
	r.end.Store(int64(out.Begin))
	return out
}

// stealable reports, without the mutex, whether stealHalf may succeed. It
// reads begin before end, and begin only grows while a range drains, so a
// range it reports as too short was too short when end was read; a reset
// that refills the range meanwhile is seen by a later call.
func (r *stealRange) stealable() bool {
	begin := r.begin.Load()
	return r.end.Load()-begin >= 2
}

// reset reinstalls a fresh range.
func (r *stealRange) reset(rng iterspace.Range) {
	r.mu.Lock()
	r.begin.Store(int64(rng.Begin))
	r.end.Store(int64(rng.End))
	r.mu.Unlock()
}

// policy marks c as a stealing loop when the scheduler steals and the loop
// is coarse. It is small enough to inline, so a static loop pays one branch.
// Master-only, before the fork.
func (s *Scheduler) policy(c *command) {
	if s.cfg.Steal && c.n >= s.coarse {
		s.deal(c)
	}
}

// deal makes c a stealing loop and deals every worker its static block as
// its initial range.
func (s *Scheduler) deal(c *command) {
	c.dynamic = true
	c.chunk = s.chunkFor(c.n)
	for w := range s.ranges {
		s.ranges[w].reset(iterspace.Block(c.n, s.p, w))
	}
	s.outstanding.Store(int64(c.n))
}

// chunkFor returns the stealing chunk size for a loop of n iterations.
func (s *Scheduler) chunkFor(n int) int {
	if s.chunk > 0 {
		return s.chunk
	}
	return max(minStealChunk, n/(stealChunksPerWorker*s.p))
}

// runStolen executes worker w's share of a stealing loop: chunks from the
// front of its own range, then random steals of half a victim's remaining
// range, until every iteration of the loop has run. Only For and
// ForReduceVec, whose element-wise sums are commutative, steal.
func (s *Scheduler) runStolen(w int, c *command) {
	var buf []float64
	if c.reduce == reduceVec {
		buf = s.vecViews[w][:c.width]
		for i := range buf {
			buf[i] = 0
		}
	}
	own := &s.ranges[w]
	for {
		for r := own.take(c.chunk); !r.Empty(); r = own.take(c.chunk) {
			s.counters.Inc(trace.ChunksClaimed)
			if c.reduce == reduceVec {
				c.vbody(w, r.Begin, r.End, buf)
			} else {
				c.body(w, r.Begin, r.End)
			}
			s.outstanding.Add(-int64(r.Len()))
		}
		if !s.stealInto(w) {
			return
		}
	}
}

// stealInto sweeps the other workers' ranges, from a random one onwards,
// until it moves half of a victim's remaining range into worker w's own
// range. A victim whose range looks too short without its mutex is skipped,
// so an idle thief stays off the lock the owner takes for every chunk. A
// sweep that finds nothing counts one failed steal and backs off before the
// next. It returns false once every iteration has run.
func (s *Scheduler) stealInto(w int) bool {
	var backoff spin.Backoff
	for s.outstanding.Load() > 0 {
		first := s.rngs[w].IntN(s.p)
		for i := range s.p {
			victim := (first + i) % s.p
			if victim == w || !s.ranges[victim].stealable() {
				continue
			}
			if stolen := s.ranges[victim].stealHalf(); !stolen.Empty() {
				s.counters.Inc(trace.Steals)
				s.ranges[w].reset(stolen)
				return true
			}
		}
		s.counters.Inc(trace.FailedSteals)
		backoff.Pause()
	}
	return false
}
