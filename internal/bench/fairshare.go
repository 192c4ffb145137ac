package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/stats"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// FairShareOptions configures the weighted-fair scheduling scenario: two
// tenants with unequal weights saturate one jobs scheduler with identical
// calibrated spin jobs, while a sparse stream of high-priority
// deadline-carrying jobs is injected through the *light* tenant (the worst
// case for a FIFO: its urgent jobs queue behind everyone's backlog). The
// same workload runs with the weighted-fair policy and with the FIFO
// baseline (Config.DisableFair); the policy is the only variable.
type FairShareOptions struct {
	// Workers is the team size; <= 0 selects GOMAXPROCS minus two (floored
	// at 2, capped at 16): the scenario measures the admission policy, so
	// the load-generating streams must keep some CPU of their own — with
	// the workers saturating every processor, the generators starve, the
	// faster-served tenant's backlog dries out at exactly the admission
	// instants, and the measured ratio collapses toward 1 regardless of the
	// policy.
	Workers int
	// WeightA and WeightB are the two tenants' fair-share weights; <= 0
	// selects 3 and 1 (the canonical 3:1 split).
	WeightA, WeightB int
	// Streams is the number of submitters per tenant; <= 0 selects
	// 2 x Workers.
	Streams int
	// Window is each stream's in-flight job window: a stream keeps Window
	// jobs submitted at once, replacing the oldest as it completes, so a
	// tenant's backlog survives submitter wake-up latency (load generators
	// compete with the saturated workers for CPU; with a single job in
	// flight per stream, the *faster-served* tenant's queue would run dry
	// waiting for its submitters to wake, collapsing the measured ratio
	// toward 1). <= 0 selects 8.
	Window int
	// N is the per-job iteration count; <= 0 selects 2048.
	N int
	// IterNs is the target per-iteration cost; <= 0 selects 150.
	IterNs float64
	// Duration is the measurement window; <= 0 selects 600ms. A quarter of
	// it is prepended as warmup so admission reaches steady state first.
	Duration time.Duration
	// HighPrioEvery is the injection period of the high-priority jobs;
	// <= 0 selects Duration/25 (enough samples for a p95).
	HighPrioEvery time.Duration
	// DisableFair runs the FIFO baseline instead of the policy.
	DisableFair bool
	// Tracer, when set, runs the scheduler with lifecycle tracing on (the
	// trace-overhead scenario measures the cost); nil runs untraced.
	Tracer *trace.Tracer
}

func (o *FairShareOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) - 2
		if o.Workers > 16 {
			o.Workers = 16
		}
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.WeightA <= 0 {
		o.WeightA = 3
	}
	if o.WeightB <= 0 {
		o.WeightB = 1
	}
	if o.Streams <= 0 {
		o.Streams = 2 * o.Workers
	}
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.N <= 0 {
		o.N = 2048
	}
	if o.IterNs <= 0 {
		o.IterNs = 150
	}
	if o.Duration <= 0 {
		o.Duration = 600 * time.Millisecond
	}
	if o.HighPrioEvery <= 0 {
		o.HighPrioEvery = o.Duration / 25
	}
}

// FairShareResult is the outcome of one fair-share run.
type FairShareResult struct {
	// Policy is "wfq" (weighted fair queuing) or "fifo".
	Policy          string  `json:"policy"`
	Workers         int     `json:"workers"`
	WeightA         int     `json:"weight_a"`
	WeightB         int     `json:"weight_b"`
	DurationSeconds float64 `json:"duration_seconds"`
	// JobsA/ItersA and JobsB/ItersB are the tenants' served jobs and
	// iterations during the measurement window.
	JobsA  int64 `json:"jobs_a"`
	JobsB  int64 `json:"jobs_b"`
	ItersA int64 `json:"iters_a"`
	ItersB int64 `json:"iters_b"`
	// ShareRatio is the achieved served-work ratio ItersA/ItersB; under the
	// policy it should approach WeightA/WeightB, under FIFO roughly 1.
	ShareRatio float64 `json:"share_ratio"`
	// JobsPerSecond is the aggregate throughput during the window (both
	// tenants plus the high-priority stream).
	JobsPerSecond float64 `json:"jobs_per_second"`
	// HighPrio latency quantiles (submission to completion, seconds) over
	// the high-priority jobs submitted inside the window.
	HighPrioJobs int     `json:"high_prio_jobs"`
	HighPrioP50  float64 `json:"high_prio_p50_seconds"`
	HighPrioP95  float64 `json:"high_prio_p95_seconds"`
	HighPrioP99  float64 `json:"high_prio_p99_seconds"`
	// Preempted and DeadlineMissed are the scheduler's policy counters over
	// the whole run (zero under FIFO).
	Preempted      int64 `json:"preempted_total"`
	DeadlineMissed int64 `json:"deadline_missed_total"`
}

const (
	fairTenantA = "gold"
	fairTenantB = "bronze"
)

// RunFairShare runs the scenario once. Jobs are verified reductions; a
// wrong answer fails the run.
func RunFairShare(opt FairShareOptions) (FairShareResult, error) {
	opt.normalize()
	s := jobs.New(jobs.Config{
		Workers: opt.Workers,
		TenantWeights: map[string]int{
			fairTenantA: opt.WeightA,
			fairTenantB: opt.WeightB,
		},
		DisableFair: opt.DisableFair,
		Tracer:      opt.Tracer,
		Name:        "fairshare",
	})
	res := FairShareResult{
		Policy:  "wfq",
		Workers: s.P(),
		WeightA: opt.WeightA,
		WeightB: opt.WeightB,
	}
	if opt.DisableFair {
		res.Policy = "fifo"
	}
	work := calibrated(opt.IterNs)
	want := float64(opt.N)
	req := jobs.Request{
		N:           opt.N,
		Label:       "fairshare",
		Commutative: true,
		Combine:     func(a, b float64) float64 { return a + b },
		RBody: func(w, lo, hi int, acc float64) float64 {
			workload.Consume(work.Run(lo, hi))
			return acc + float64(hi-lo)
		},
	}

	var (
		measuring    atomic.Bool
		stop         atomic.Bool
		jobsA, jobsB atomic.Int64
		totalJobs    atomic.Int64
		firstErr     atomic.Value
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		stop.Store(true)
	}
	var wg sync.WaitGroup
	stream := func(tenant string, jobs_ *atomic.Int64) {
		defer wg.Done()
		r := req
		r.Tenant = tenant
		inflight := make([]*jobs.Job, 0, opt.Window)
		settle := func(j *jobs.Job) bool {
			v, err := j.Wait()
			if err != nil {
				fail(err)
				return false
			}
			if v != want {
				fail(fmt.Errorf("bench: fairshare %s job returned %v, want %v", tenant, v, want))
				return false
			}
			if measuring.Load() {
				jobs_.Add(1)
				totalJobs.Add(1)
			}
			return true
		}
		for !stop.Load() {
			j, err := s.Submit(r)
			if err != nil {
				fail(err)
				break
			}
			inflight = append(inflight, j)
			if len(inflight) < opt.Window {
				continue
			}
			j, inflight = inflight[0], inflight[1:]
			if !settle(j) {
				break
			}
		}
		for _, j := range inflight {
			settle(j)
		}
	}
	for i := 0; i < opt.Streams; i++ {
		wg.Add(2)
		go stream(fairTenantA, &jobsA)
		go stream(fairTenantB, &jobsB)
	}

	// High-priority injector: sparse urgent jobs through the light tenant —
	// exactly the jobs a FIFO parks behind both tenants' full backlogs.
	var hpLats []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(opt.HighPrioEvery)
		defer ticker.Stop()
		for !stop.Load() {
			<-ticker.C
			r := req
			r.Tenant = fairTenantB
			r.Priority = 9
			r.Deadline = time.Now().Add(opt.HighPrioEvery)
			inWindow := measuring.Load()
			start := time.Now()
			j, err := s.Submit(r)
			if err != nil {
				fail(err)
				return
			}
			v, err := j.Wait()
			if err != nil {
				fail(err)
				return
			}
			if v != want {
				fail(fmt.Errorf("bench: fairshare high-prio job returned %v, want %v", v, want))
				return
			}
			if inWindow && measuring.Load() {
				hpLats = append(hpLats, time.Since(start).Seconds())
				totalJobs.Add(1)
			}
		}
	}()

	time.Sleep(opt.Duration / 4) // warmup: queues fill, calibration settles
	stA := s.Stats().Tenants
	measuring.Store(true)
	start := time.Now()
	time.Sleep(opt.Duration)
	measuring.Store(false)
	res.DurationSeconds = time.Since(start).Seconds()
	stB := s.Stats().Tenants
	stop.Store(true)
	wg.Wait()
	finalStats := s.Stats()
	s.Close()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return res, err
	}

	// Served work over the window from the scheduler's own tenant accounts
	// (the difference of two snapshots), so the measurement matches what the
	// tenant-labelled metrics report; client-side job counts cross-check it.
	res.ItersA = stB[fairTenantA].IterationsDone - stA[fairTenantA].IterationsDone
	res.ItersB = stB[fairTenantB].IterationsDone - stA[fairTenantB].IterationsDone
	res.JobsA, res.JobsB = jobsA.Load(), jobsB.Load()
	if res.ItersB > 0 {
		res.ShareRatio = float64(res.ItersA) / float64(res.ItersB)
	}
	if res.DurationSeconds > 0 {
		res.JobsPerSecond = float64(totalJobs.Load()) / res.DurationSeconds
	}
	res.HighPrioJobs = len(hpLats)
	if len(hpLats) > 0 {
		q := stats.Quantiles(hpLats, 0.5, 0.95, 0.99)
		res.HighPrioP50, res.HighPrioP95, res.HighPrioP99 = q[0], q[1], q[2]
	}
	res.Preempted = finalStats.Preempted
	res.DeadlineMissed = finalStats.DeadlineMissed
	return res, nil
}

// FairShareReport is the machine-readable outcome of the policy-vs-FIFO
// comparison, serialised to BENCH_fairshare.json so the fairness trajectory
// is tracked across PRs.
type FairShareReport struct {
	Workers int `json:"workers"`
	// TargetRatio is the configured WeightA/WeightB.
	TargetRatio float64         `json:"target_ratio"`
	Fair        FairShareResult `json:"fair"`
	FIFO        FairShareResult `json:"fifo"`
	// FairShareError is |Fair.ShareRatio - TargetRatio| / TargetRatio: the
	// acceptance criterion asks for <= 0.15 under saturation.
	FairShareError float64 `json:"fair_share_error"`
	// FIFOShareError is the same distance for the baseline (expected large:
	// FIFO converges to the submission ratio, ~1:1).
	FIFOShareError float64 `json:"fifo_share_error"`
	// HighPrioP95Speedup is FIFO p95 over policy p95 for the high-priority
	// stream; the acceptance criterion asks for >= 2.
	HighPrioP95Speedup float64 `json:"high_prio_p95_speedup"`
}

// RunFairShareComparison runs the scenario under the weighted-fair policy
// and under the FIFO baseline, same options otherwise.
func RunFairShareComparison(opt FairShareOptions) (FairShareReport, error) {
	opt.normalize()
	rep := FairShareReport{
		Workers:     opt.Workers,
		TargetRatio: float64(opt.WeightA) / float64(opt.WeightB),
	}
	fair := opt
	fair.DisableFair = false
	var err error
	if rep.Fair, err = RunFairShare(fair); err != nil {
		return rep, err
	}
	fifo := opt
	fifo.DisableFair = true
	if rep.FIFO, err = RunFairShare(fifo); err != nil {
		return rep, err
	}
	shareErr := func(r FairShareResult) float64 {
		if r.ShareRatio == 0 {
			return 1
		}
		e := (r.ShareRatio - rep.TargetRatio) / rep.TargetRatio
		if e < 0 {
			e = -e
		}
		return e
	}
	rep.FairShareError = shareErr(rep.Fair)
	rep.FIFOShareError = shareErr(rep.FIFO)
	if rep.Fair.HighPrioP95 > 0 {
		rep.HighPrioP95Speedup = rep.FIFO.HighPrioP95 / rep.Fair.HighPrioP95
	}
	return rep, nil
}

// WriteFairShare renders the comparison as a table.
func WriteFairShare(w io.Writer, rep FairShareReport) error {
	fmt.Fprintf(w, "Weighted-fair scheduling scenario: 2 tenants at %d:%d on %d workers, WFQ+preemption vs FIFO\n",
		rep.Fair.WeightA, rep.Fair.WeightB, rep.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tshare A:B\ttarget\tjobs/s\thp p50 (ms)\thp p95 (ms)\tpreempted\tdeadline missed")
	row := func(r FairShareResult) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.0f\t%.3f\t%.3f\t%d\t%d\n",
			r.Policy, r.ShareRatio, rep.TargetRatio, r.JobsPerSecond,
			r.HighPrioP50*1e3, r.HighPrioP95*1e3, r.Preempted, r.DeadlineMissed)
	}
	row(rep.Fair)
	row(rep.FIFO)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nachieved share within %.1f%% of target (FIFO: %.1f%%); high-priority p95 %.2fx lower than FIFO\n",
		rep.FairShareError*100, rep.FIFOShareError*100, rep.HighPrioP95Speedup)
	return nil
}
