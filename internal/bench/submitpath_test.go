package bench

import (
	"io"
	"os"
	"testing"
)

// TestSubmitPathSmoke verifies the measurement machinery on a tiny
// configuration: both phases run, every metric is populated and internally
// consistent. The zero-alloc and batch-amortization criteria are asserted
// separately under BENCH_STRICT.
func TestSubmitPathSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test")
	}
	res, err := RunSubmitPath(SubmitPathOptions{Workers: 2, Jobs: 512, Warmup: 64, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.NsPerSubmit <= 0 {
		t.Errorf("ns/submit = %g, want > 0", res.NsPerSubmit)
	}
	if res.DispatchP50Ns <= 0 || res.DispatchP50Ns > res.DispatchP95Ns || res.DispatchP95Ns > res.DispatchP99Ns {
		t.Errorf("dispatch percentiles not ordered: p50=%g p95=%g p99=%g",
			res.DispatchP50Ns, res.DispatchP95Ns, res.DispatchP99Ns)
	}
	if res.BatchSize != 32 || res.BatchNsPerSubmit <= 0 {
		t.Errorf("batched phase did not run: size=%d ns/submit=%g", res.BatchSize, res.BatchNsPerSubmit)
	}
	if err := WriteSubmitPath(io.Discard, res); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitPathAcceptance is the refactor's acceptance criterion: the
// steady-state submit path allocates nothing (pooled jobs, by-value
// handoffs), and batched intake amortizes admission below the single-submit
// cost. Asserted only with BENCH_STRICT=1 (set on capable CI runners,
// never under -race: the race runtime allocates on paths the production
// build does not).
func TestSubmitPathAcceptance(t *testing.T) {
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the zero-alloc and batch-amortization criteria (needs a quiet machine, non-race build)")
	}
	res, err := RunSubmitPath(SubmitPathOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = WriteSubmitPath(os.Stderr, res)
	// The window tolerates a stray background allocation (GC bookkeeping,
	// timer rearms) but not a per-submit one.
	const allocBudget = 0.05
	if res.AllocsPerSubmit > allocBudget {
		t.Errorf("allocs/submit = %g, want <= %g (submit path must not allocate)", res.AllocsPerSubmit, allocBudget)
	}
	if res.BatchAllocsPerSubmit > allocBudget {
		t.Errorf("batch allocs/submit = %g, want <= %g", res.BatchAllocsPerSubmit, allocBudget)
	}
	if res.BatchNsPerSubmit >= res.NsPerSubmit {
		t.Errorf("batch ns/submit = %g not below single-submit %g (batched intake must amortize admission)",
			res.BatchNsPerSubmit, res.NsPerSubmit)
	}
}
