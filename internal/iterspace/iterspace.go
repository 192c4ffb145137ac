// Package iterspace provides iteration-range types and the partitioning
// policies used by the loop schedulers: static block partitioning (the
// fine-grain and OpenMP-static schedulers), chunked dynamic partitioning
// (OpenMP dynamic), guided partitioning (OpenMP guided) and recursive
// bisection (the Cilk-style scheduler).
package iterspace

import (
	"fmt"
	"sync/atomic"
)

// Range is a half-open iteration interval [Begin, End).
type Range struct {
	Begin int
	End   int
}

// Len returns the number of iterations in the range (never negative).
func (r Range) Len() int {
	if r.End <= r.Begin {
		return 0
	}
	return r.End - r.Begin
}

// Empty reports whether the range contains no iterations.
func (r Range) Empty() bool { return r.End <= r.Begin }

// String implements fmt.Stringer.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Begin, r.End) }

// Split bisects the range into two halves. The first half receives the extra
// iteration when the length is odd. Splitting an empty or single-iteration
// range returns the range itself and an empty second half.
func (r Range) Split() (Range, Range) {
	if r.Len() <= 1 {
		return r, Range{Begin: r.End, End: r.End}
	}
	mid := r.Begin + (r.End-r.Begin+1)/2
	return Range{r.Begin, mid}, Range{mid, r.End}
}

// Block computes the static block assignment of worker w out of p workers
// over n iterations: contiguous blocks as equal as possible, with the first
// n%p workers receiving one extra iteration. This matches OpenMP
// schedule(static) with the default chunk size and the paper's step 1
// ("the master divides the loop iteration range among available workers").
func Block(n, p, w int) Range {
	if p <= 0 {
		panic(fmt.Sprintf("iterspace: non-positive worker count %d", p))
	}
	if w < 0 || w >= p {
		panic(fmt.Sprintf("iterspace: worker %d out of range [0,%d)", w, p))
	}
	if n <= 0 {
		return Range{}
	}
	base := n / p
	rem := n % p
	var begin int
	if w < rem {
		begin = w * (base + 1)
		return Range{begin, begin + base + 1}
	}
	begin = rem*(base+1) + (w-rem)*base
	return Range{begin, begin + base}
}

// Chunker hands out chunks of an iteration space dynamically. It is the
// shared-counter scheduler behind OpenMP schedule(dynamic,chunk): every Next
// call claims the next `chunk` iterations with a single atomic add.
type Chunker struct {
	next  atomic.Int64
	n     int64
	chunk int64
}

// NewChunker creates a dynamic chunker over n iterations with the given
// chunk size (minimum 1).
func NewChunker(n, chunk int) *Chunker {
	c := &Chunker{}
	c.Init(n, chunk)
	return c
}

// Init (re)initialises an embedded Chunker in place over n iterations with
// the given chunk size (minimum 1), so that callers embedding a Chunker by
// value — one atomic cursor per job, say — need no extra allocation. It must
// not be called concurrently with Next.
func (c *Chunker) Init(n, chunk int) {
	if chunk <= 0 {
		chunk = 1
	}
	c.n = int64(n)
	c.chunk = int64(chunk)
	c.next.Store(0)
}

// InitAt is Init with a starting offset: claims begin at `begin` instead of
// 0, so a checkpointed job resumes from its cursor watermark and re-executes
// nothing. begin is clamped to [0, n]. It must not be called concurrently
// with Next.
func (c *Chunker) InitAt(begin, n, chunk int) {
	c.Init(n, chunk)
	b := int64(begin)
	if b < 0 {
		b = 0
	}
	if b > c.n {
		b = c.n
	}
	c.next.Store(b)
}

// Chunk returns the chunk size handed out by Next.
func (c *Chunker) Chunk() int { return int(c.chunk) }

// Claimed returns the exclusive high-water mark of claimed iterations:
// every iteration below it has been handed out by some Next call (clamped to
// n — the final claims overshoot the space). Once all claimants have finished
// their chunks and stopped claiming, this is the job's exact executed
// watermark.
func (c *Chunker) Claimed() int {
	claimed := c.next.Load()
	if claimed > c.n {
		claimed = c.n
	}
	if claimed < 0 {
		claimed = 0
	}
	return int(claimed)
}

// Next claims the next chunk. It returns an empty range (ok == false) once
// the iteration space is exhausted.
func (c *Chunker) Next() (Range, bool) {
	begin := c.next.Add(c.chunk) - c.chunk
	if begin >= c.n {
		return Range{}, false
	}
	end := begin + c.chunk
	if end > c.n {
		end = c.n
	}
	return Range{int(begin), int(end)}, true
}

// Remaining returns a lower bound on the number of unclaimed iterations.
func (c *Chunker) Remaining() int {
	claimed := c.next.Load()
	if claimed >= c.n {
		return 0
	}
	return int(c.n - claimed)
}

// Reset rewinds the chunker so the same iteration space can be replayed.
// It must not be called concurrently with Next.
func (c *Chunker) Reset() { c.next.Store(0) }

// Guided hands out chunks whose size decays with the remaining work, like
// OpenMP schedule(guided,chunkMin): each claim takes remaining/p iterations,
// but never fewer than chunkMin.
type Guided struct {
	mu       spinlock
	next     int64
	n        int64
	p        int64
	chunkMin int64
}

// NewGuided creates a guided scheduler over n iterations for p workers with
// the given minimum chunk size.
func NewGuided(n, p, chunkMin int) *Guided {
	if p <= 0 {
		p = 1
	}
	if chunkMin <= 0 {
		chunkMin = 1
	}
	return &Guided{n: int64(n), p: int64(p), chunkMin: int64(chunkMin)}
}

// Next claims the next guided chunk.
func (g *Guided) Next() (Range, bool) {
	g.mu.lock()
	if g.next >= g.n {
		g.mu.unlock()
		return Range{}, false
	}
	remaining := g.n - g.next
	size := remaining / g.p
	if size < g.chunkMin {
		size = g.chunkMin
	}
	if size > remaining {
		size = remaining
	}
	begin := g.next
	g.next += size
	g.mu.unlock()
	return Range{int(begin), int(begin + size)}, true
}

// Reset rewinds the guided scheduler. Not safe concurrently with Next.
func (g *Guided) Reset() { g.next = 0 }

// spinlock is a minimal test-and-set lock. The guided scheduler's critical
// section is a handful of instructions; a mutex's parking path would
// dominate it.
type spinlock struct {
	v atomic.Uint32
}

func (l *spinlock) lock() {
	for {
		if l.v.CompareAndSwap(0, 1) {
			return
		}
		for l.v.Load() != 0 {
			// spin
		}
	}
}

func (l *spinlock) unlock() { l.v.Store(0) }
