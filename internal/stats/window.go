package stats

import (
	"runtime"
	"sync/atomic"
)

// Window is a live group of counters that only ever grow (L: a Histogram,
// or a struct of them, loading as S) plus the marks that give its recent
// past. Every N-th Tick copies the live group into one of two preallocated
// marks, alternating, and Load reports the window as the live group minus
// the older mark: the last N to 2N-1 records (all of them before the N-th).
// Records and marks never block; a reader retries rather than use a mark
// caught mid-copy.
type Window[L any, S interface{ Sub(S) S }, P interface {
	*L
	Load() S
	CopyFrom(*L) // atomic stores of another group's current values
}] struct {
	// N is the records per mark; set it before the first record. Record
	// into Live, and follow each record with Tick.
	N     uint64
	Live  L
	done  atomic.Uint64
	marks [2]struct {
		// seq is 2g+1 while the mark of generation g (record g·N) is being
		// copied in and 2g+2 once it is complete; 0 before the first, while
		// the mark is all zeros.
		seq atomic.Uint64
		l   L
	}
}

// Tick counts one record and, on every N-th, marks.
func (w *Window[L, S, P]) Tick() {
	if c := w.done.Add(1); c%w.N == 0 {
		w.mark(c / w.N)
	}
}

// mark copies the live group into generation g's slot. Only a record that
// marks generation g-2 there and stalls for N records copies concurrently;
// the slot then mixes two copies, each no newer than the live group, which
// a reader takes for an older mark, never for a negative window.
func (w *Window[L, S, P]) mark(g uint64) {
	m := &w.marks[g%2]
	m.seq.Store(2*g + 1)
	P(&m.l).CopyFrom(&w.Live)
	m.seq.Store(2*g + 2)
}

// Load returns the live group and the window: the live group minus the mark
// of the generation before the current one. The mark is read before the
// live group, so no count in the window is negative.
func (w *Window[L, S, P]) Load() (life, win S) {
	for {
		g := w.done.Load() / w.N
		m := &w.marks[(g+1)%2]
		if seq := m.seq.Load(); seq&1 == 0 && seq <= 2*g {
			mark := P(&m.l).Load()
			life = P(&w.Live).Load()
			if m.seq.Load() == seq {
				return life, life.Sub(mark)
			}
		}
		// The mark is mid-copy, or a newer generation took the slot.
		runtime.Gosched()
	}
}
