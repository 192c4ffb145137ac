package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/stats"
	"loopsched/internal/trace"
)

// ShardBurstOptions configures the sharded-throughput scenario: many
// concurrent tenants hammer the pool with small jobs (the dispatcher-bound
// regime a single admission event loop serializes on) mixed with occasional
// big skewed jobs (the burst/skew mix that leaves static partitions
// imbalanced). The same workload runs on one shard and on n shards; the
// shard count is the only variable.
type ShardBurstOptions struct {
	// Workers is the total worker count; <= 0 selects GOMAXPROCS capped at
	// 16 so the scenario stays meaningful on huge machines.
	Workers int
	// Shards is the sharded configuration's shard count; <= 0 selects
	// min(4, Workers).
	Shards int
	// Tenants is the number of concurrent submitters; <= 0 selects
	// 4 x Workers (enough contention to expose the admission loop).
	Tenants int
	// JobsPerTenant is the number of jobs each tenant submits back to back;
	// <= 0 selects 30.
	JobsPerTenant int
	// N is the per-job iteration count of the small jobs; <= 0 selects 256
	// (microseconds of work: admission cost is a visible fraction).
	N int
	// BigEvery makes every BigEvery'th job of each tenant a big skewed job
	// of 16N iterations; <= 0 selects 8. Set very large to disable.
	BigEvery int
	// IterNs is the target per-iteration cost; <= 0 selects 200.
	IterNs float64
	// StealInterval and DisableStealing pass through to the sharded pool.
	StealInterval   time.Duration
	DisableStealing bool
	// Tracer, when set, runs the pool with lifecycle tracing on (the
	// trace-overhead scenario measures the cost); nil runs untraced.
	Tracer *trace.Tracer
}

func (o *ShardBurstOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 16 {
			o.Workers = 16
		}
	}
	if o.Shards <= 0 {
		o.Shards = 4
		if o.Shards > o.Workers {
			o.Shards = o.Workers
		}
	}
	if o.Tenants <= 0 {
		o.Tenants = 4 * o.Workers
	}
	if o.JobsPerTenant <= 0 {
		o.JobsPerTenant = 30
	}
	if o.N <= 0 {
		o.N = 256
	}
	if o.BigEvery <= 0 {
		o.BigEvery = 8
	}
	if o.IterNs <= 0 {
		o.IterNs = 200
	}
}

// ShardBurstResult is the outcome of one shard-burst run.
type ShardBurstResult struct {
	Shards    int `json:"shards"`
	Workers   int `json:"workers"`
	Tenants   int `json:"tenants"`
	JobsTotal int `json:"jobs_total"`
	// WallSeconds is the end-to-end duration; JobsPerSecond and
	// IterationsPerSecond the aggregate throughput.
	WallSeconds         float64 `json:"wall_seconds"`
	JobsPerSecond       float64 `json:"jobs_per_second"`
	IterationsPerSecond float64 `json:"iterations_per_second"`
	// P50/P95/P99 are client-side job latencies in seconds (submission to
	// completion, measured by each tenant).
	P50 float64 `json:"latency_p50_seconds"`
	P95 float64 `json:"latency_p95_seconds"`
	P99 float64 `json:"latency_p99_seconds"`
	// Cross-shard traffic and elastic resize counters, summed over shards.
	Stolen int64 `json:"stolen_total"`
	Lent   int64 `json:"lent_total"`
	Grown  int64 `json:"grown_total"`
	Peeled int64 `json:"peeled_total"`
}

// RunShardBurst runs the scenario once on the given shard count. Small jobs
// are verified reductions; a wrong answer fails the run.
func RunShardBurst(opt ShardBurstOptions) (ShardBurstResult, error) {
	opt.normalize()
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config: jobs.Config{
			Workers: opt.Workers,
			Tracer:  opt.Tracer,
			Name:    "shardburst",
		},
		Shards:          opt.Shards,
		StealInterval:   opt.StealInterval,
		DisableStealing: opt.DisableStealing,
	})
	res := ShardBurstResult{
		Shards:    p.Shards(),
		Workers:   p.P(),
		Tenants:   opt.Tenants,
		JobsTotal: opt.Tenants * opt.JobsPerTenant,
	}
	smallReq, err := NewJobRequest("sum", JobParams{N: opt.N})
	if err != nil {
		p.Close()
		return res, err
	}
	bigReq, err := NewJobRequest("spinskew", JobParams{N: 16 * opt.N, IterNs: opt.IterNs})
	if err != nil {
		p.Close()
		return res, err
	}
	wantSmall := float64(opt.N) * float64(opt.N-1) / 2

	lats := make([][]float64, opt.Tenants)
	errs := make([]error, opt.Tenants)
	var iters int64
	var itersMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for tnt := 0; tnt < opt.Tenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			lats[tnt] = make([]float64, 0, opt.JobsPerTenant)
			var myIters int64
			for i := 0; i < opt.JobsPerTenant; i++ {
				req, n := smallReq, opt.N
				big := (tnt+i)%opt.BigEvery == opt.BigEvery-1
				if big {
					req, n = bigReq, 16*opt.N
				}
				jobStart := time.Now()
				j, err := p.Submit(req)
				if err != nil {
					errs[tnt] = err
					return
				}
				v, err := j.Wait()
				if err != nil {
					errs[tnt] = err
					return
				}
				lats[tnt] = append(lats[tnt], time.Since(jobStart).Seconds())
				if !big && v != wantSmall {
					errs[tnt] = fmt.Errorf("bench: tenant %d job %d returned %v, want %v", tnt, i, v, wantSmall)
					return
				}
				myIters += int64(n)
			}
			itersMu.Lock()
			iters += myIters
			itersMu.Unlock()
		}(tnt)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	st := p.Stats()
	p.Close()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Stolen, res.Lent = st.Total.Stolen, st.Total.Lent
	res.Grown, res.Peeled = st.Total.Grown, st.Total.Peeled
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	q := stats.Quantiles(all, 0.5, 0.95, 0.99)
	res.P50, res.P95, res.P99 = q[0], q[1], q[2]
	if res.WallSeconds > 0 {
		res.JobsPerSecond = float64(res.JobsTotal) / res.WallSeconds
		res.IterationsPerSecond = float64(iters) / res.WallSeconds
	}
	return res, nil
}

// ShardBurstReport is the machine-readable outcome of the 1-shard-vs-n-shard
// comparison, serialised to BENCH_shardburst.json so the perf trajectory is
// tracked across PRs.
type ShardBurstReport struct {
	Workers int              `json:"workers"`
	Single  ShardBurstResult `json:"single_shard"`
	Sharded ShardBurstResult `json:"sharded"`
	// Speedup is sharded jobs/s over single-shard jobs/s.
	Speedup float64 `json:"throughput_speedup"`
	// TailRatio is single-shard p95 latency over sharded p95.
	TailRatio float64 `json:"p95_tail_ratio"`
}

// RunShardBurstComparison runs the scenario on one shard and on opt.Shards
// shards, same options otherwise.
func RunShardBurstComparison(opt ShardBurstOptions) (ShardBurstReport, error) {
	opt.normalize()
	rep := ShardBurstReport{Workers: opt.Workers}
	single := opt
	single.Shards = 1
	var err error
	if rep.Single, err = RunShardBurst(single); err != nil {
		return rep, err
	}
	if rep.Sharded, err = RunShardBurst(opt); err != nil {
		return rep, err
	}
	if rep.Single.JobsPerSecond > 0 {
		rep.Speedup = rep.Sharded.JobsPerSecond / rep.Single.JobsPerSecond
	}
	if rep.Sharded.P95 > 0 {
		rep.TailRatio = rep.Single.P95 / rep.Sharded.P95
	}
	return rep, nil
}

// WriteShardBurst renders the comparison as a table.
func WriteShardBurst(w io.Writer, rep ShardBurstReport) error {
	fmt.Fprintf(w, "Sharded-pool burst/skew scenario: %d tenants x %d jobs on %d workers, 1 vs %d shards\n",
		rep.Single.Tenants, rep.Single.JobsTotal/max(rep.Single.Tenants, 1), rep.Workers, rep.Sharded.Shards)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tjobs/s\titer/s\tp50 (ms)\tp95 (ms)\tp99 (ms)\tstolen\tlent\tgrown\tpeeled")
	row := func(r ShardBurstResult) {
		fmt.Fprintf(tw, "%d\t%.0f\t%.3g\t%.3f\t%.3f\t%.3f\t%d\t%d\t%d\t%d\n",
			r.Shards, r.JobsPerSecond, r.IterationsPerSecond,
			r.P50*1e3, r.P95*1e3, r.P99*1e3, r.Stolen, r.Lent, r.Grown, r.Peeled)
	}
	row(rep.Single)
	row(rep.Sharded)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d-shard throughput is %.2fx the single-shard configuration (p95 tail %.2fx lower)\n",
		rep.Sharded.Shards, rep.Speedup, rep.TailRatio)
	return nil
}
