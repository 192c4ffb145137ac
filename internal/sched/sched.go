// Package sched defines the scheduler-facing contract that every runtime in
// this repository implements (the fine-grain half-barrier scheduler, with
// or without its work-stealing policy, the OpenMP-style baselines and the
// Cilk-style baseline), so that the workloads — the granularity
// micro-benchmark, MPDATA and the map-reduce kernels — are written once and
// run under any of them.
package sched

// Body is the body of a parallel loop over a contiguous chunk of the
// iteration space: it processes iterations [begin, end) on worker w.
type Body func(w, begin, end int)

// ReduceBody is the body of a reducing parallel loop: it processes
// iterations [begin, end) on worker w, folding into acc and returning the
// new accumulator value. The runtime guarantees that per-worker accumulators
// are combined in increasing worker-index order.
type ReduceBody func(w, begin, end int, acc float64) float64

// VecBody is the body of a parallel loop with a small-vector reduction: it
// processes iterations [begin, end) on worker w, accumulating in place into
// acc (whose length is the Width passed to ForReduceVec). It must only add
// to — never reset — acc.
type VecBody func(w, begin, end int, acc []float64)

// Scheduler is a parallel-loop runtime.
type Scheduler interface {
	// Name identifies the runtime in benchmark output (for example
	// "fine-grain-tree" or "openmp-static").
	Name() string
	// P returns the number of workers, including the master.
	P() int
	// For executes body over the iteration space [0, n), dividing it among
	// the workers according to the runtime's scheduling policy. It returns
	// when all iterations have completed.
	For(n int, body Body)
	// ForReduce executes a reducing loop with identity `identity` and the
	// associative combine function `combine`, returning the reduction of
	// all per-worker partial results in worker order.
	ForReduce(n int, identity float64, combine func(a, b float64) float64, body ReduceBody) float64
	// ForReduceVec executes a loop reducing into a vector of `width`
	// float64s by element-wise addition, returning the summed vector.
	ForReduceVec(n, width int, body VecBody) []float64
	// Close releases the runtime's workers. The scheduler must not be used
	// after Close.
	Close()
}

// SumVec adds src into dst element-wise; a helper shared by runtimes that
// implement ForReduceVec by per-worker buffers.
func SumVec(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Sequential is the trivial scheduler: it runs everything on the calling
// goroutine. It provides the T (sequential time) baseline for speedup
// measurements and a correctness oracle for the parallel runtimes.
type Sequential struct{}

// NewSequential returns the sequential scheduler.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Scheduler.
func (*Sequential) Name() string { return "sequential" }

// P implements Scheduler.
func (*Sequential) P() int { return 1 }

// For implements Scheduler.
func (*Sequential) For(n int, body Body) {
	if n <= 0 {
		return
	}
	body(0, 0, n)
}

// ForReduce implements Scheduler.
func (*Sequential) ForReduce(n int, identity float64, combine func(a, b float64) float64, body ReduceBody) float64 {
	acc := identity
	if n > 0 {
		acc = body(0, 0, n, acc)
	}
	return acc
}

// ForReduceVec implements Scheduler.
func (*Sequential) ForReduceVec(n, width int, body VecBody) []float64 {
	acc := make([]float64, width)
	if n > 0 {
		body(0, 0, n, acc)
	}
	return acc
}

// Close implements Scheduler.
func (*Sequential) Close() {}

var _ Scheduler = (*Sequential)(nil)
