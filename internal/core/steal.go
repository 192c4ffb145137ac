package core

import (
	"sync"

	"loopsched/internal/iterspace"
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
// arithmetic operations.
type stealRange struct {
	mu    sync.Mutex
	begin int
	end   int
	_     [96]byte
}

// take claims up to chunk iterations from the front, returning an empty
// range when exhausted.
func (r *stealRange) take(chunk int) iterspace.Range {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.begin >= r.end {
		return iterspace.Range{}
	}
	out := iterspace.Range{Begin: r.begin, End: min(r.begin+chunk, r.end)}
	r.begin = out.End
	return out
}

// stealHalf removes and returns the back half of the remaining range (empty
// if fewer than two iterations remain).
func (r *stealRange) stealHalf() iterspace.Range {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end-r.begin < 2 {
		return iterspace.Range{}
	}
	out := iterspace.Range{Begin: r.begin + (r.end-r.begin)/2, End: r.end}
	r.end = out.Begin
	return out
}

// reset reinstalls a fresh range.
func (r *stealRange) reset(rng iterspace.Range) {
	r.mu.Lock()
	r.begin, r.end = rng.Begin, rng.End
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

// stealInto alternates random steal attempts with polling for loop
// completion until it moves half of a victim's remaining range into worker
// w's own range. It returns false once every iteration has run.
func (s *Scheduler) stealInto(w int) bool {
	for s.outstanding.Load() > 0 {
		victim := s.rngs[w].IntN(s.p)
		if victim == w {
			continue
		}
		stolen := s.ranges[victim].stealHalf()
		if stolen.Empty() {
			s.counters.Inc(trace.FailedSteals)
			continue
		}
		s.counters.Inc(trace.Steals)
		s.ranges[w].reset(stolen)
		return true
	}
	return false
}
