// Package core implements the paper's primary contribution: a fine-grain
// parallel-loop scheduler built on the half-barrier pattern.
//
// # The half-barrier pattern
//
// A statically scheduled parallel loop conventionally performs four steps:
// the master (1) divides the iteration range among the workers, (2) sends
// the work descriptions to them, (3) the workers execute their shares, and
// (4) the master waits for completion and folds partial reduction results.
// Steps 2 and 4 are conventionally implemented with full barriers — a fork
// barrier and a join barrier, each with a join phase and a release phase.
//
// Because every worker is dedicated to a single master and sits idle between
// loops, two of those four phases are redundant:
//
//   - the join phase of the fork barrier (workers need not wait for each
//     other before starting; they only need the master's release), and
//   - the release phase of the join barrier (the master need not acknowledge
//     the workers' completion; they go back to waiting for the next fork).
//
// What remains is one release wave at the fork and one join wave at the
// join: a single barrier's worth of synchronisation per loop — the
// half-barrier pattern. This package composes the two halves from the
// primitives in internal/barrier, over a Mellor-Crummey/Scott style tree
// tuned to the machine topology (or a centralized barrier, for the ablation
// in Table 1 of the paper).
//
// # Reductions
//
// For loops with reduction variables the scheduler allocates per-worker
// views statically at the start of the loop and folds them pairwise inside
// the join wave of the tree, as the arrivals climb towards the master:
// exactly P-1 combine operations, in increasing worker-index order (which
// equals iteration order under block partitioning), so non-commutative
// reductions remain correct. The Intel OpenMP baseline, by contrast,
// executes an additional barrier-like construct to aggregate per-thread
// results — three full barriers per reducing loop versus two half-barriers
// here (see internal/omp).
//
// # Iteration policies
//
// A loop's iterations reach the workers by one of two policies; fork, join
// and the reduction views are the same for both.
//
//   - Static blocks (the default): worker w runs the w-th contiguous block
//     of the iteration space, once.
//   - Stealable ranges (Config.Steal, the paper's extension of its
//     work-stealing runtime, named "hybrid"): fine-grain loops still run
//     static blocks, but a coarse loop (at least coarseThreshold
//     iterations) deals each worker its block as a range it owns. The
//     worker takes chunks from the front of its range and, once that is
//     exhausted, alternates random steal attempts — taking the back half
//     of a victim's remaining range — with polling for loop completion,
//     then joins through the same half-barrier.
//
// Only For and ForReduceVec steal. ForReduce and ForCombine always run
// static blocks: their join wave folds the partials in worker order, which
// equals iteration order only when worker w ran block w, and a
// non-commutative reduction depends on that order. ForReduceVec's
// element-wise sums do not.
//
// # Variants
//
// The scheduler exposes the ablation axes of Table 1 as configuration:
// BarrierTree vs BarrierCentralized, and ModeHalf vs ModeFull (the latter
// re-inserting the redundant phases so the only variable is the pattern
// itself).
package core
