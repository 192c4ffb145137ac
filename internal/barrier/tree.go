package barrier

import (
	"fmt"

	"loopsched/internal/spin"
	"loopsched/internal/topology"
)

// Tree is a Mellor-Crummey & Scott style tree barrier over an arbitrary tree
// shape, exposing the full barrier as well as the two half-barrier
// primitives. Arrivals climb the tree (join phase) and the release signal
// descends it (release phase); every worker spins only on locations written
// by its own children or parent, so an episode costs O(fan-out) remote
// traffic per worker instead of the O(P) contention of a centralized
// barrier.
//
// The shape is supplied by the topology package and is typically aligned to
// the machine's cache/socket hierarchy, mirroring how the paper tunes its
// tree barrier to the organisation of the evaluation machine.
type Tree struct {
	shape topology.TreeShape
	root  int

	// joinEpoch[w] is the number of join episodes worker w has completed,
	// i.e. the number of times w's entire subtree has arrived.
	joinEpoch []paddedUint64
	// releaseEpoch[w] is the number of release episodes worker w has
	// propagated.
	releaseEpoch []paddedUint64
	// fullEpoch[w] counts completed full-barrier episodes; kept separate so
	// full barriers can be interleaved with half-barrier episodes (the
	// full-barrier ablation uses only this).
	fullJoin    []paddedUint64
	fullRelease []paddedUint64
}

// NewTree builds a tree barrier with the given shape. The shape must be
// valid (see topology.TreeShape.Validate).
func NewTree(shape topology.TreeShape) *Tree {
	if err := shape.Validate(); err != nil {
		panic(fmt.Sprintf("barrier: invalid tree shape: %v", err))
	}
	return &Tree{
		shape:        shape,
		root:         shape.Root(),
		joinEpoch:    make([]paddedUint64, shape.P),
		releaseEpoch: make([]paddedUint64, shape.P),
		fullJoin:     make([]paddedUint64, shape.P),
		fullRelease:  make([]paddedUint64, shape.P),
	}
}

// Participants returns P.
func (b *Tree) Participants() int { return b.shape.P }

// Shape returns the tree shape the barrier was built with.
func (b *Tree) Shape() topology.TreeShape { return b.shape }

// Root returns the worker index acting as the barrier root (the master).
func (b *Tree) Root() int { return b.root }

// Join implements Joiner: arrivals propagate towards the root. A leaf simply
// publishes its arrival; an interior node first waits for all of its
// children (in increasing worker order), then publishes; the root returns
// only once its whole subtree — i.e. everyone — has arrived.
func (b *Tree) Join(w int) { b.joinCombine(w, nil, b.joinEpoch) }

// JoinCombine implements CombiningJoiner: identical wave structure to Join,
// but after waiting for child c the function combine(w, c) is invoked, so
// the reduction is folded into the synchronisation and exactly P-1 combines
// happen per episode (one per tree edge).
func (b *Tree) JoinCombine(w int, combine func(into, from int)) {
	b.joinCombine(w, combine, b.joinEpoch)
}

func (b *Tree) joinCombine(w int, combine func(into, from int), epochs []paddedUint64) {
	epoch := epochs[w].v.Load() + 1
	for _, c := range b.shape.Children[w] {
		spin.WaitUint64AtLeast(&epochs[c].v, epoch)
		if combine != nil {
			combine(w, c)
		}
	}
	epochs[w].v.Store(epoch)
}

// Release implements Releaser: the root publishes the release signal and
// returns immediately (it does not wait for anyone — this is the fork
// half-barrier); every other worker waits for its parent's signal, forwards
// it to its own children by publishing, and returns.
func (b *Tree) Release(w int) { b.release(w, b.releaseEpoch) }

func (b *Tree) release(w int, epochs []paddedUint64) {
	want := epochs[w].v.Load() + 1
	if w != b.root {
		spin.WaitUint64AtLeast(&epochs[b.shape.Parent[w]].v, want)
	}
	epochs[w].v.Store(want)
}

// Wait implements Full: a conventional two-phase tree barrier composed of a
// join wave followed by a release wave, on counters independent from the
// half-barrier episodes.
func (b *Tree) Wait(w int) {
	b.joinCombine(w, nil, b.fullJoin)
	b.release(w, b.fullRelease)
}

// WaitCombine is Wait with a reduction folded into the join wave; used by
// the "fine-grain tree with full barrier" ablation so that the only variable
// relative to the half-barrier scheduler is the redundant synchronisation.
func (b *Tree) WaitCombine(w int, combine func(into, from int)) {
	b.joinCombine(w, combine, b.fullJoin)
	b.release(w, b.fullRelease)
}

var (
	_ Full     = (*Tree)(nil)
	_ HalfPair = (*Tree)(nil)
)
