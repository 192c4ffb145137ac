// Package barrier implements the synchronisation primitives underlying the
// loop schedulers: a centralized sense-reversing barrier, a Mellor-Crummey &
// Scott style tree barrier, and — central to the paper — the two
// *half-barrier* primitives obtained by splitting a barrier into its join
// phase and its release phase.
//
// A conventional barrier episode has two phases:
//
//   - the join phase records the arrival of every participant (arrivals
//     propagate towards a root, either a shared counter or the root of a
//     tree), and
//   - the release phase signals every participant to proceed (the signal
//     propagates from the root back to the leaves).
//
// A statically scheduled parallel loop conventionally uses two such barriers:
// a fork barrier after the master publishes the work descriptors and a join
// barrier when the loop body completes. The paper observes that, because
// workers are dedicated to a single master and idle between loops, the join
// phase of the fork barrier and the release phase of the join barrier are
// redundant. The Releaser and Joiner interfaces below expose exactly the two
// phases that remain, so the fine-grain scheduler composes
//
//	Release (fork half-barrier)  +  Join (join half-barrier)
//
// per loop, while the full-barrier ablation composes Join+Release twice.
//
// All primitives identify participants by a dense worker index 0..P-1 and
// require that every participant calls the primitive exactly once per
// episode. Worker 0 is the master/root unless the tree shape says otherwise.
package barrier

// Full is a conventional two-phase barrier: Wait returns only after all P
// participants have called Wait for the same episode.
type Full interface {
	// Wait blocks worker w until all participants have arrived, then
	// releases them.
	Wait(w int)
	// Participants returns the number of workers P the barrier was built for.
	Participants() int
}

// Releaser is the release (fork) half of a barrier: the root publishes a
// release signal and returns without waiting for anyone; every other worker
// blocks until the signal reaches it.
type Releaser interface {
	// Release performs one release episode for worker w. The root returns
	// immediately after publishing; other workers return once released.
	Release(w int)
	Participants() int
}

// Joiner is the join half of a barrier: non-root workers announce arrival
// and return immediately (they do not wait to be released); the root blocks
// until every worker has arrived.
type Joiner interface {
	// Join performs one join episode for worker w. Non-root workers return
	// as soon as their arrival has been recorded (and propagated, for tree
	// variants); the root returns once all arrivals are visible.
	Join(w int)
	Participants() int
}

// CombiningJoiner is a Joiner that can fold a reduction into the join phase:
// as arrivals propagate towards the root, the provided combine function is
// invoked as combine(into, from), where `into` and `from` are worker indices
// and the caller guarantees that worker `from` has completed its loop body.
// Combination is performed in increasing worker-index order along every
// path, so non-commutative (ordered) reductions are safe when the iteration
// space is block-partitioned in worker order.
type CombiningJoiner interface {
	Joiner
	// JoinCombine is like Join but additionally folds children into parents
	// using combine. Exactly P-1 combine invocations occur per episode
	// across all workers.
	JoinCombine(w int, combine func(into, from int))
}

// HalfPair bundles the two half-barrier primitives a fine-grain parallel
// loop needs. Implementations guarantee that Release and Join episodes on
// the same HalfPair do not interfere even though they alternate.
type HalfPair interface {
	Releaser
	CombiningJoiner
}
