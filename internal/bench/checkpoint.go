// checkpoint.go is the checkpoint/resume overhead scenario: the same job
// fleet is run three times — on a plain scheduler, on a scheduler writing
// durable checkpoints to a file-backed WAL, and on the durable scheduler
// with every job suspended and resumed once mid-flight — so the cost of the
// durability layer (the acceptance bar: <= 5% makespan overhead when nobody
// suspends) and of a checkpointed pause itself are both visible as ratios.
// A fourth measurement times raw WAL appends, the per-snapshot write cost.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/trace"
)

// CheckpointOptions configures the checkpoint/resume overhead scenario.
type CheckpointOptions struct {
	// Workers is the team size; <= 0 selects GOMAXPROCS minus two, floored
	// at 2 and capped at 16 (the suspend controllers need CPU of their own).
	Workers int
	// Jobs is the fleet size per phase; <= 0 selects 64.
	Jobs int
	// N is the per-job iteration count; <= 0 selects 4096.
	N int
	// IterNs is the target per-iteration cost; <= 0 selects 150.
	IterNs float64
	// Grain is the self-scheduling chunk size; <= 0 keeps the heuristic.
	Grain int
	// Reps repeats every phase; the reported makespans are medians (a single
	// makespan on a shared machine is dominated by scheduler noise). <= 0
	// selects 3.
	Reps int
	// PutRecords is how many raw WAL appends the write-cost measurement
	// times; <= 0 selects 4096.
	PutRecords int
}

func (o *CheckpointOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) - 2
		if o.Workers > 16 {
			o.Workers = 16
		}
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.Jobs <= 0 {
		o.Jobs = 64
	}
	if o.N <= 0 {
		o.N = 4096
	}
	if o.IterNs <= 0 {
		o.IterNs = 150
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.PutRecords <= 0 {
		o.PutRecords = 4096
	}
}

// CheckpointPhaseResult is one phase's median outcome.
type CheckpointPhaseResult struct {
	MakespanSeconds  float64 `json:"makespan_seconds"`
	JobsPerSecond    float64 `json:"jobs_per_second"`
	CheckpointWrites int64   `json:"checkpoint_writes"`
	Resumes          int64   `json:"resumes"`
	// Parked counts the suspend/resume phase's jobs whose suspend parked
	// them (Resume returned true); a job can finish before its suspend
	// lands, so Parked may be below the job count.
	Parked int64 `json:"parked"`
}

// CheckpointReport is the scenario outcome; the ratios are the metrics
// tracked across PRs (see internal/bench/manifest.json).
type CheckpointReport struct {
	Workers int `json:"workers"`
	Jobs    int `json:"jobs"`
	N       int `json:"n"`
	// Baseline runs without a checkpoint store; Durable attaches a
	// file-backed store (every submission writes its snapshot, completions
	// delete it); SuspendResume additionally parks and re-admits every job
	// once mid-flight.
	Baseline      CheckpointPhaseResult `json:"baseline"`
	Durable       CheckpointPhaseResult `json:"durable"`
	SuspendResume CheckpointPhaseResult `json:"suspend_resume"`
	// StoreOverheadRatio is durable makespan over baseline makespan — both
	// best-of-reps, see medianPhase — and the acceptance criterion asks for
	// <= 1.05 (checkpointing an uninterrupted fleet costs at most 5%).
	StoreOverheadRatio float64 `json:"store_overhead_ratio"`
	// SuspendResumeOverheadRatio is the suspend/resume makespan over
	// baseline (best-of-reps): what one checkpointed pause per job costs
	// end to end.
	SuspendResumeOverheadRatio float64 `json:"suspend_resume_overhead_ratio"`
	// CheckpointWriteNs is the raw WAL append cost per snapshot.
	CheckpointWriteNs float64 `json:"checkpoint_write_ns"`
}

// runCheckpointPhase runs one fleet to completion and reports its makespan.
// With a store, every request carries a durable checkpoint template; with
// churn, a controller suspends each job once and resumes it as soon as it
// parks.
func runCheckpointPhase(opt CheckpointOptions, store jobs.CheckpointStore, churn bool) (CheckpointPhaseResult, error) {
	var tracer *trace.Tracer
	if store != nil {
		// Durable checkpoints need tracer-assigned job ids, exactly as in
		// the serving daemon (loopd forces tracing on with -checkpoint-dir).
		tracer = trace.NewTracer(0)
	}
	s := jobs.New(jobs.Config{
		Workers:     opt.Workers,
		Tracer:      tracer,
		Checkpoints: store,
	})
	defer s.Close()

	params := JobParams{N: opt.N, IterNs: opt.IterNs, Grain: opt.Grain}
	rawParams, err := json.Marshal(params)
	if err != nil {
		return CheckpointPhaseResult{}, err
	}

	start := time.Now()
	handles := make([]*jobs.Job, opt.Jobs)
	for i := range handles {
		req, err := NewJobRequest("spinsum", params)
		if err != nil {
			return CheckpointPhaseResult{}, err
		}
		if store != nil {
			req.Checkpoint = &jobs.Checkpoint{Workload: "spinsum", Params: rawParams}
		}
		j, err := s.Submit(req)
		if err != nil {
			return CheckpointPhaseResult{}, err
		}
		handles[i] = j
		if churn {
			// Suspend right on the heels of the submit. The job is usually
			// still pending (parks instantly) or just started (parks at its
			// first chunk-wave boundary), but an idle scheduler admits it
			// inside Submit, so it can finish first when the submitter is
			// descheduled. Suspending later would race the workers: on a
			// wide machine the fleet finishes faster than a churn loop can
			// walk it.
			j.Suspend()
		}
	}
	var parked int64
	if churn {
		// Resume the whole parked fleet. Resume spins briefly per job: a
		// suspend posted to a running job only parks it at the next wave
		// boundary, slightly after Suspend returned.
		for _, j := range handles {
			for !j.Resume() {
				select {
				case <-j.Done():
					goto next // finished before its park landed
				default:
					runtime.Gosched()
				}
			}
			parked++
		next:
		}
	}
	want := float64(opt.N)
	for i, j := range handles {
		v, err := j.Wait()
		if err != nil {
			return CheckpointPhaseResult{}, fmt.Errorf("job %d: %w", i, err)
		}
		if v != want {
			return CheckpointPhaseResult{}, fmt.Errorf("job %d: reduction %v, want %v (chunk lost or doubled across a pause)", i, v, want)
		}
	}
	makespan := time.Since(start).Seconds()

	st := s.Stats()
	return CheckpointPhaseResult{
		MakespanSeconds:  makespan,
		JobsPerSecond:    float64(opt.Jobs) / makespan,
		CheckpointWrites: st.CheckpointWrites,
		Resumes:          st.ResumedTotal,
		Parked:           parked,
	}, nil
}

// medianPhase repeats a phase and returns the rep with the median makespan
// (the reported, representative figure) plus the minimum makespan across
// reps. The overhead ratios compare minima: on a shared machine scheduler
// noise is strictly additive, so best-of-reps is the closest observable to
// the true cost of each configuration, while a median-vs-median ratio of
// ~25ms fleets swings by more than the 5% band being asserted.
func medianPhase(opt CheckpointOptions, run func() (CheckpointPhaseResult, error)) (CheckpointPhaseResult, float64, error) {
	results := make([]CheckpointPhaseResult, 0, opt.Reps)
	for r := 0; r < opt.Reps; r++ {
		res, err := run()
		if err != nil {
			return CheckpointPhaseResult{}, 0, err
		}
		results = append(results, res)
	}
	sort.Slice(results, func(i, j int) bool {
		return results[i].MakespanSeconds < results[j].MakespanSeconds
	})
	return results[len(results)/2], results[0].MakespanSeconds, nil
}

// RunCheckpoint runs the scenario: baseline, durable and suspend/resume
// fleets (medians over Reps), plus the raw WAL append cost.
func RunCheckpoint(opt CheckpointOptions) (CheckpointReport, error) {
	opt.normalize()
	rep := CheckpointReport{Workers: opt.Workers, Jobs: opt.Jobs, N: opt.N}

	var err error
	var baseBest, durBest, churnBest float64
	if rep.Baseline, baseBest, err = medianPhase(opt, func() (CheckpointPhaseResult, error) {
		return runCheckpointPhase(opt, nil, false)
	}); err != nil {
		return rep, fmt.Errorf("baseline phase: %w", err)
	}

	durablePhase := func(churn bool) (CheckpointPhaseResult, error) {
		dir, err := os.MkdirTemp("", "ckptbench")
		if err != nil {
			return CheckpointPhaseResult{}, err
		}
		defer os.RemoveAll(dir)
		store, err := jobs.OpenFileStore(dir)
		if err != nil {
			return CheckpointPhaseResult{}, err
		}
		defer store.Close()
		return runCheckpointPhase(opt, store, churn)
	}
	if rep.Durable, durBest, err = medianPhase(opt, func() (CheckpointPhaseResult, error) {
		return durablePhase(false)
	}); err != nil {
		return rep, fmt.Errorf("durable phase: %w", err)
	}
	if rep.SuspendResume, churnBest, err = medianPhase(opt, func() (CheckpointPhaseResult, error) {
		return durablePhase(true)
	}); err != nil {
		return rep, fmt.Errorf("suspend/resume phase: %w", err)
	}
	if baseBest > 0 {
		rep.StoreOverheadRatio = durBest / baseBest
		rep.SuspendResumeOverheadRatio = churnBest / baseBest
	}

	if rep.CheckpointWriteNs, err = checkpointWriteCost(opt); err != nil {
		return rep, fmt.Errorf("write-cost phase: %w", err)
	}
	return rep, nil
}

// checkpointWriteCost times raw WAL appends: one Put per distinct job id,
// the exact write a submission or a park performs.
func checkpointWriteCost(opt CheckpointOptions) (float64, error) {
	dir, err := os.MkdirTemp("", "ckptbench-wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.OpenFileStore(dir)
	if err != nil {
		return 0, err
	}
	defer store.Close()

	cp := jobs.Checkpoint{
		Workload: "spinsum",
		Params:   json.RawMessage(`{"N":4096,"IterNs":150}`),
		Tenant:   "bench", N: opt.N,
	}
	start := time.Now()
	for i := 0; i < opt.PutRecords; i++ {
		cp.JobID = uint64(i + 1)
		cp.Cursor = i
		if err := store.Put(cp); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(opt.PutRecords), nil
}

// WriteCheckpointBench renders the report as a human-readable table.
func WriteCheckpointBench(w io.Writer, rep CheckpointReport) error {
	fmt.Fprintf(w, "Checkpoint/resume overhead scenario: %d workers, %d jobs x %d iterations\n",
		rep.Workers, rep.Jobs, rep.N)
	row := func(name string, r CheckpointPhaseResult) {
		fmt.Fprintf(w, "%-16s makespan %8.3fms  %7.0f jobs/s  %5d checkpoint writes  %4d resumes  %4d parked\n",
			name, r.MakespanSeconds*1e3, r.JobsPerSecond, r.CheckpointWrites, r.Resumes, r.Parked)
	}
	row("baseline", rep.Baseline)
	row("durable", rep.Durable)
	row("suspend+resume", rep.SuspendResume)
	fmt.Fprintf(w, "\nstore overhead: %.3fx baseline (acceptance <= 1.05); one pause per job: %.3fx\n",
		rep.StoreOverheadRatio, rep.SuspendResumeOverheadRatio)
	fmt.Fprintf(w, "raw WAL append: %.0f ns per snapshot\n", rep.CheckpointWriteNs)
	return nil
}
