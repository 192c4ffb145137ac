package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/stats"
)

// SubmitPathOptions configures the submit-path micro-benchmark: one
// submitter drives minimal jobs (N = 1, one worker) through the full
// Sharded -> fair queue -> dispatch -> worker spine, one at a time, so the
// measured quantities are pure runtime overhead — the cost of handing one
// job to one idle worker — rather than loop-body throughput.
type SubmitPathOptions struct {
	// Workers is the team size; <= 0 selects GOMAXPROCS capped at 8 (the
	// handoff path does not get faster with more idle workers).
	Workers int
	// Shards is the sharded configuration; <= 0 selects 1 (the submit path
	// still routes through Sharded, so the router cost is included).
	Shards int
	// Jobs is the number of measured submissions; <= 0 selects 20000.
	Jobs int
	// Warmup is the number of unmeasured priming submissions (pool warmup,
	// freelist priming); <= 0 selects 2000.
	Warmup int
	// Batch is the SubmitBatch size of the batched phase; <= 0 selects 64.
	// The batched phase is skipped when Jobs < Batch.
	Batch int
	// N is the per-job iteration count; <= 0 selects 1 (the pure-handoff
	// regime: the body is a timestamp store, nothing else).
	N int
}

func (o *SubmitPathOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Jobs <= 0 {
		o.Jobs = 20000
	}
	if o.Warmup <= 0 {
		o.Warmup = 2000
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.N <= 0 {
		o.N = 1
	}
}

// SubmitPathResult is the machine-readable outcome, serialised to
// BENCH_submitpath.json. NsPerSubmit is the latency of the Submit call
// itself; the dispatch percentiles measure submission to first body
// execution (the handoff latency through the queue, the dispatcher and the
// worker wake); AllocsPerSubmit is the heap-allocation count of one whole
// submit -> dispatch -> run -> complete -> wait cycle, averaged over the
// measured window (the refactor target is 0).
type SubmitPathResult struct {
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	Jobs    int `json:"jobs"`

	NsPerSubmit     float64 `json:"ns_per_submit"`
	AllocsPerSubmit float64 `json:"allocs_per_submit"`

	DispatchP50Ns float64 `json:"dispatch_p50_ns"`
	DispatchP95Ns float64 `json:"dispatch_p95_ns"`
	DispatchP99Ns float64 `json:"dispatch_p99_ns"`

	// Batched intake: the amortized per-job cost of SubmitBatch admitting
	// Batch jobs under one routing decision and one queue-lock acquisition.
	// Zero when the batched phase was skipped.
	BatchSize            int     `json:"batch_size"`
	BatchNsPerSubmit     float64 `json:"batch_ns_per_submit"`
	BatchAllocsPerSubmit float64 `json:"batch_allocs_per_submit"`

	WallSeconds float64 `json:"wall_seconds"`
}

// RunSubmitPath runs the submit-path micro-benchmark.
func RunSubmitPath(opt SubmitPathOptions) (SubmitPathResult, error) {
	opt.normalize()
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config: jobs.Config{
			Workers: opt.Workers,
			Name:    "submitpath",
		},
		Shards: opt.Shards,
	})
	defer p.Close()
	res := SubmitPathResult{
		Workers: p.P(),
		Shards:  p.Shards(),
		Jobs:    opt.Jobs,
	}

	// The body is a single timestamp store: bodyAt is written by the worker
	// strictly before the job completes and read strictly after Wait, so the
	// plain (non-atomic) variable is properly ordered. One job is in flight
	// at a time.
	var bodyAt time.Time
	req := jobs.Request{
		N:          opt.N,
		MaxWorkers: 1,
		Grain:      opt.N,
		Label:      "submitpath",
		Body: func(w, low, high int) {
			bodyAt = time.Now()
		},
	}

	for i := 0; i < opt.Warmup; i++ {
		j, err := p.Submit(req)
		if err != nil {
			return res, err
		}
		if _, err := j.Wait(); err != nil {
			return res, err
		}
		j.Release()
	}

	dispatch := make([]float64, opt.Jobs)
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	runtime.ReadMemStats(&ms0)
	var submitTotal time.Duration
	for i := 0; i < opt.Jobs; i++ {
		t0 := time.Now()
		j, err := p.Submit(req)
		if err != nil {
			return res, err
		}
		submitTotal += time.Since(t0)
		if _, err := j.Wait(); err != nil {
			return res, err
		}
		dispatch[i] = float64(bodyAt.Sub(t0))
		j.Release()
	}
	runtime.ReadMemStats(&ms1)
	res.WallSeconds = time.Since(start).Seconds()
	res.NsPerSubmit = float64(submitTotal.Nanoseconds()) / float64(opt.Jobs)
	res.AllocsPerSubmit = float64(ms1.Mallocs-ms0.Mallocs) / float64(opt.Jobs)
	q := stats.Quantiles(dispatch, 0.5, 0.95, 0.99)
	res.DispatchP50Ns, res.DispatchP95Ns, res.DispatchP99Ns = q[0], q[1], q[2]

	if err := runSubmitBatchPhase(p, req, opt, &res); err != nil {
		return res, err
	}
	return res, nil
}

// runSubmitBatchPhase measures the amortized per-job cost of batched intake:
// SubmitBatch admits Batch jobs under one routing decision and one queue-lock
// acquisition, then the round waits for and releases every member. The body
// is a no-op — batch members run concurrently, so the timestamp probe of the
// single-submit phase would race; only admission cost and allocations are
// measured here.
func runSubmitBatchPhase(p *jobs.Sharded, req jobs.Request, opt SubmitPathOptions, res *SubmitPathResult) error {
	rounds := opt.Jobs / opt.Batch
	if rounds == 0 {
		return nil
	}
	req.Body = func(w, low, high int) {}
	reqs := make([]jobs.Request, opt.Batch)
	for i := range reqs {
		reqs[i] = req
	}
	out := make([]*jobs.Job, opt.Batch)

	round := func() error {
		t0 := time.Now()
		err := p.SubmitBatch(reqs, out)
		submit := time.Since(t0)
		if err != nil {
			return err
		}
		res.BatchNsPerSubmit += float64(submit.Nanoseconds())
		for _, j := range out {
			if _, err := j.Wait(); err != nil {
				return err
			}
			j.Release()
		}
		return nil
	}

	warmRounds := opt.Warmup / opt.Batch
	if warmRounds == 0 {
		warmRounds = 1
	}
	res.BatchNsPerSubmit = 0
	for i := 0; i < warmRounds; i++ {
		if err := round(); err != nil {
			return err
		}
	}

	res.BatchNsPerSubmit = 0
	res.BatchSize = opt.Batch
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < rounds; i++ {
		if err := round(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	jobsRun := rounds * opt.Batch
	res.BatchNsPerSubmit /= float64(jobsRun)
	res.BatchAllocsPerSubmit = float64(ms1.Mallocs-ms0.Mallocs) / float64(jobsRun)
	return nil
}

// WriteSubmitPath renders the result as a table.
func WriteSubmitPath(w io.Writer, res SubmitPathResult) error {
	fmt.Fprintf(w, "Submit-path overhead: %d jobs (N=1, one worker each) through %d shard(s) on %d workers\n",
		res.Jobs, res.Shards, res.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue")
	fmt.Fprintf(tw, "ns/submit\t%.0f\n", res.NsPerSubmit)
	fmt.Fprintf(tw, "allocs/submit\t%.2f\n", res.AllocsPerSubmit)
	fmt.Fprintf(tw, "dispatch p50\t%.1fµs\n", res.DispatchP50Ns/1e3)
	fmt.Fprintf(tw, "dispatch p95\t%.1fµs\n", res.DispatchP95Ns/1e3)
	fmt.Fprintf(tw, "dispatch p99\t%.1fµs\n", res.DispatchP99Ns/1e3)
	if res.BatchSize > 0 {
		fmt.Fprintf(tw, "batch(%d) ns/submit\t%.0f\n", res.BatchSize, res.BatchNsPerSubmit)
		fmt.Fprintf(tw, "batch(%d) allocs/submit\t%.2f\n", res.BatchSize, res.BatchAllocsPerSubmit)
	}
	return tw.Flush()
}
