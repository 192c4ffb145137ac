package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
)

// PipelineOptions configures the pipeline scenario: concurrent tenants each
// run a fan-out/fan-in stage graph (source -> FanOut parallel transforms ->
// verified reducing sink), and the same graph executes two ways — submitted
// as one dependency DAG up front, and submitted stage by stage with the
// client awaiting each stage before submitting the next. The makespan delta
// is the cost (or gain) of expressing the stages as runtime dependencies
// instead of client-side joins.
type PipelineOptions struct {
	// Workers is the total worker count; <= 0 selects GOMAXPROCS capped at
	// 16.
	Workers int
	// Shards is the shard count; <= 0 derives it from the topology.
	Shards int
	// Chains is the number of concurrent pipelines; <= 0 selects 2 x
	// Workers.
	Chains int
	// Stages is the number of fan-out stages per pipeline between the
	// source and the sink; <= 0 selects 3.
	Stages int
	// FanOut is the number of parallel jobs per middle stage; <= 0 selects
	// 3.
	FanOut int
	// N is the per-job iteration count; <= 0 selects 2048.
	N int
	// IterNs is the target per-iteration cost of the spin stages; <= 0
	// selects 150.
	IterNs float64
	// Rounds is how many times each tenant repeats its pipeline; <= 0
	// selects 4.
	Rounds int
}

func (o *PipelineOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 16 {
			o.Workers = 16
		}
	}
	if o.Chains <= 0 {
		o.Chains = 2 * o.Workers
	}
	if o.Stages <= 0 {
		o.Stages = 3
	}
	if o.FanOut <= 0 {
		o.FanOut = 3
	}
	if o.N <= 0 {
		o.N = 2048
	}
	if o.IterNs <= 0 {
		o.IterNs = 150
	}
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
}

// PipelineResult is the outcome of running the scenario in one submission
// mode.
type PipelineResult struct {
	Mode      string `json:"mode"` // "dag" or "await"
	Chains    int    `json:"chains"`
	JobsTotal int    `json:"jobs_total"`
	// MakespanSeconds is the end-to-end wall time for all chains.
	MakespanSeconds float64 `json:"makespan_seconds"`
	// JobsPerSecond is the aggregate throughput over all stage jobs.
	JobsPerSecond float64 `json:"jobs_per_second"`
	// Released and DepCanceled are the runtime's dependency counters
	// (always zero in await mode, which uses no dependency edges).
	Released    int64 `json:"released_total"`
	DepCanceled int64 `json:"dep_canceled_total"`
}

// runChain executes one fan-out/fan-in pipeline on p. In dag mode the whole
// stage graph is submitted up front with dependency edges; in await mode the
// client waits for each stage before submitting the next (the baseline the
// DAG submission is measured against). The sink is a verified sum.
func runChain(p *jobs.Sharded, opt PipelineOptions, dag bool, spinReq jobs.Request, wantSink float64) error {
	sinkReq, err := NewJobRequest("sum", JobParams{N: opt.N})
	if err != nil {
		return err
	}
	var prev []*jobs.Job
	submitStage := func(req jobs.Request, width int) ([]*jobs.Job, error) {
		cur := make([]*jobs.Job, 0, width)
		if dag {
			req.After = prev
		}
		for i := 0; i < width; i++ {
			j, err := p.Submit(req)
			if err != nil {
				return nil, err
			}
			cur = append(cur, j)
		}
		if !dag {
			for _, j := range cur {
				if _, err := j.Wait(); err != nil {
					return nil, err
				}
			}
		}
		return cur, nil
	}
	if prev, err = submitStage(spinReq, 1); err != nil { // source
		return err
	}
	for s := 0; s < opt.Stages; s++ {
		if prev, err = submitStage(spinReq, opt.FanOut); err != nil {
			return err
		}
	}
	sink, err := submitStage(sinkReq, 1)
	if err != nil {
		return err
	}
	v, err := sink[0].Wait()
	if err != nil {
		return err
	}
	if v != wantSink {
		return fmt.Errorf("bench: pipeline sink = %v, want %v", v, wantSink)
	}
	return nil
}

// RunPipeline runs the scenario once in the given submission mode.
func RunPipeline(opt PipelineOptions, dag bool) (PipelineResult, error) {
	opt.normalize()
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config: jobs.Config{
			Workers: opt.Workers,
			Name:    "pipeline",
		},
		Shards: opt.Shards,
	})
	mode := "await"
	if dag {
		mode = "dag"
	}
	jobsPerChain := 1 + opt.Stages*opt.FanOut + 1
	res := PipelineResult{
		Mode:      mode,
		Chains:    opt.Chains,
		JobsTotal: opt.Chains * opt.Rounds * jobsPerChain,
	}
	spinReq, err := NewJobRequest("spin", JobParams{N: opt.N, IterNs: opt.IterNs})
	if err != nil {
		p.Close()
		return res, err
	}
	wantSink := float64(opt.N) * float64(opt.N-1) / 2

	errs := make([]error, opt.Chains)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opt.Chains; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < opt.Rounds; r++ {
				if err := runChain(p, opt, dag, spinReq, wantSink); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res.MakespanSeconds = time.Since(start).Seconds()
	st := p.Stats()
	p.Close()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Released, res.DepCanceled = st.Total.Released, st.Total.DepCanceled
	if res.MakespanSeconds > 0 {
		res.JobsPerSecond = float64(res.JobsTotal) / res.MakespanSeconds
	}
	return res, nil
}

// PipelineReport is the machine-readable outcome of the dag-vs-await
// comparison, serialised to BENCH_pipeline.json so the perf trajectory is
// tracked across PRs.
type PipelineReport struct {
	Workers int            `json:"workers"`
	Stages  int            `json:"stages"`
	FanOut  int            `json:"fan_out"`
	N       int            `json:"n"`
	Dag     PipelineResult `json:"dag"`
	Await   PipelineResult `json:"await"`
	// OverheadPercent is the DAG makespan relative to the await baseline:
	// positive means the dependency submission was slower, negative faster.
	// The acceptance criterion is <= 5%.
	OverheadPercent float64 `json:"overhead_percent"`
	// Speedup is await makespan over dag makespan (> 1: the DAG won).
	Speedup float64 `json:"makespan_speedup"`
}

// RunPipelineComparison runs the scenario in both submission modes, same
// options.
func RunPipelineComparison(opt PipelineOptions) (PipelineReport, error) {
	opt.normalize()
	rep := PipelineReport{Workers: opt.Workers, Stages: opt.Stages, FanOut: opt.FanOut, N: opt.N}
	var err error
	if rep.Await, err = RunPipeline(opt, false); err != nil {
		return rep, err
	}
	if rep.Dag, err = RunPipeline(opt, true); err != nil {
		return rep, err
	}
	if rep.Await.MakespanSeconds > 0 {
		rep.OverheadPercent = (rep.Dag.MakespanSeconds/rep.Await.MakespanSeconds - 1) * 100
	}
	if rep.Dag.MakespanSeconds > 0 {
		rep.Speedup = rep.Await.MakespanSeconds / rep.Dag.MakespanSeconds
	}
	return rep, nil
}

// WritePipeline renders the comparison as a table.
func WritePipeline(w io.Writer, rep PipelineReport) error {
	fmt.Fprintf(w, "Pipeline scenario: %d chains x (1 + %dx%d + 1) stage jobs of %d iterations on %d workers\n",
		rep.Dag.Chains, rep.Stages, rep.FanOut, rep.N, rep.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tmakespan (ms)\tjobs/s\treleased\tdep-canceled")
	row := func(r PipelineResult) {
		fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%d\t%d\n",
			r.Mode, r.MakespanSeconds*1e3, r.JobsPerSecond, r.Released, r.DepCanceled)
	}
	row(rep.Await)
	row(rep.Dag)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nDAG submission makespan is %+.2f%% vs awaiting each stage (speedup %.2fx; acceptance: <= 5%% overhead)\n",
		rep.OverheadPercent, rep.Speedup)
	return nil
}
