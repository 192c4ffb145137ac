package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/stats"
	"loopsched/internal/workload"
)

// OverloadOptions configures the overload-protection scenario: closed-loop
// deadline-carrying streams drive one jobs scheduler at capacity and at twice
// capacity with the admission-control layer armed (bounded-wait admission,
// feasibility shedding), then a well-behaved tenant shares the scheduler with
// an abusive deadline-spamming tenant under per-tenant circuit breakers. The
// scenario measures what overload protection is for: goodput (deadline-hit
// completions per second) that survives 2x offered load, submit waits that
// stay bounded by MaxWait, zero admitted-to-miss infeasible jobs, and an
// in-SLO tenant whose tail latency is preserved behind the abuser's open
// breaker.
type OverloadOptions struct {
	// Workers is the team size; <= 0 selects GOMAXPROCS minus two (floored
	// at 2, capped at 16) — the load generators need CPU of their own, as in
	// the fair-share scenario.
	Workers int
	// Streams is the closed-loop submitter count at single capacity; the
	// overload phase doubles it. <= 0 selects Workers.
	Streams int
	// Window is each stream's in-flight job window; <= 0 selects 4.
	Window int
	// N is the per-job iteration count; <= 0 selects 2048.
	N int
	// IterNs is the target per-iteration cost; <= 0 selects 150.
	IterNs float64
	// Duration is the measurement window per phase; <= 0 selects 500ms. A
	// quarter of it is prepended as warmup so the run-time estimate the
	// feasibility check consumes is warm before anything is measured.
	Duration time.Duration
	// QueueDepth bounds the admission queue; <= 0 selects 4 x Workers.
	QueueDepth int
	// MaxWait bounds blocking for an admission slot; <= 0 selects 10ms.
	MaxWait time.Duration
	// Deadline is the well-behaved streams' per-job deadline budget;
	// <= 0 selects 50ms (generous at capacity, tight enough to measure
	// goodput honestly).
	Deadline time.Duration
	// BreakerBurnRate and BreakerCooldown arm the breaker phase;
	// <= 0 select 2.0 and 400ms (a long cooldown: the abuser never stops
	// spamming, so frequent half-open probes would just re-admit its
	// hopeless jobs into the well-behaved tenant's tail).
	BreakerBurnRate float64
	BreakerCooldown time.Duration
	// Reps is how many times the breaker isolated/mixed pair is repeated;
	// the reported p99s are the medians across repetitions (a single p99
	// sample on a small or shared machine is dominated by scheduler noise).
	// <= 0 selects 3.
	Reps int
}

func (o *OverloadOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) - 2
		if o.Workers > 16 {
			o.Workers = 16
		}
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.Streams <= 0 {
		o.Streams = o.Workers
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.N <= 0 {
		o.N = 2048
	}
	if o.IterNs <= 0 {
		o.IterNs = 150
	}
	if o.Duration <= 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 10 * time.Millisecond
	}
	if o.Deadline <= 0 {
		o.Deadline = 50 * time.Millisecond
	}
	if o.BreakerBurnRate <= 0 {
		o.BreakerBurnRate = 2
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 400 * time.Millisecond
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
}

// OverloadPhaseResult is the outcome of one load phase.
type OverloadPhaseResult struct {
	Streams         int     `json:"streams"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Admitted, Completed and DeadlineHits count jobs inside the window;
	// goodput is DeadlineHits per second — completions that missed their
	// deadline serve nobody.
	Admitted             int64   `json:"admitted"`
	Completed            int64   `json:"completed"`
	DeadlineHits         int64   `json:"deadline_hits"`
	GoodputJobsPerSecond float64 `json:"goodput_jobs_per_second"`
	P50Seconds           float64 `json:"p50_seconds"`
	P95Seconds           float64 `json:"p95_seconds"`
	P99Seconds           float64 `json:"p99_seconds"`
	// Shed counts by cause, client-observed inside the window; ShedFraction
	// is sheds over offered (admitted + shed).
	ShedTotal      int64   `json:"shed_total"`
	InfeasibleShed int64   `json:"infeasible_shed"`
	BackloggedShed int64   `json:"backlogged_shed"`
	ShedFraction   float64 `json:"shed_fraction"`
	// MaxSubmitWaitSeconds is the longest any Submit call blocked: the
	// bounded-wait contract says it never exceeds MaxWait by more than
	// scheduler jitter.
	MaxSubmitWaitSeconds float64 `json:"max_submit_wait_seconds"`
	// InfeasibleProbes/InfeasibleAdmits: jobs submitted with a deadline that
	// cannot be met (1ns of slack) after warmup. Every one must be shed at
	// intake; an admit here is a job accepted only to miss.
	InfeasibleProbes int64 `json:"infeasible_probes"`
	InfeasibleAdmits int64 `json:"infeasible_admits"`
}

// OverloadBreakerResult is the outcome of the breaker-isolation phase pair.
type OverloadBreakerResult struct {
	// IsolatedP99Seconds is the well-behaved tenant's p99 running alone;
	// MixedP99Seconds is its p99 sharing the scheduler with the abusive
	// tenant under armed breakers. GoodP99Ratio is isolated over mixed: 1.0
	// means the breaker fully preserved the tenant's tail, below 0.9 means
	// the abuser still leaked more than 11% extra tail latency through.
	IsolatedP99Seconds float64 `json:"isolated_p99_seconds"`
	MixedP99Seconds    float64 `json:"mixed_p99_seconds"`
	GoodP99Ratio       float64 `json:"good_p99_ratio"`
	GoodJobsIsolated   int64   `json:"good_jobs_isolated"`
	GoodJobsMixed      int64   `json:"good_jobs_mixed"`
	// AbusiveShed counts the abuser's submissions shed by its open breaker
	// inside the window; BreakerOpened records that the breaker tripped.
	AbusiveShed   int64 `json:"abusive_shed"`
	BreakerOpened bool  `json:"breaker_opened"`
}

// OverloadReport is the machine-readable scenario outcome, serialised to
// BENCH_overload.json.
type OverloadReport struct {
	Workers        int                   `json:"workers"`
	QueueDepth     int                   `json:"queue_depth"`
	MaxWaitSeconds float64               `json:"max_wait_seconds"`
	Baseline       OverloadPhaseResult   `json:"baseline"`
	Overload       OverloadPhaseResult   `json:"overload"`
	Breaker        OverloadBreakerResult `json:"breaker"`
	// GoodputRatio is overload goodput over baseline goodput: the acceptance
	// criterion asks for >= 0.9 (shedding keeps the scheduler serving at
	// capacity instead of queuing itself to death).
	GoodputRatio float64 `json:"goodput_ratio"`
}

const (
	overloadGoodTenant    = "steady"
	overloadAbusiveTenant = "spammer"
)

// overloadStream describes one tenant's closed-loop submitter group in a
// phase.
type overloadStream struct {
	tenant string
	count  int           // concurrent submitters
	window int           // in-flight jobs per submitter
	budget time.Duration // per-job deadline budget (0 = no deadline)
	noWait bool          // fail fast instead of blocking MaxWait
	record bool          // collect this tenant's latencies and goodput
}

// overloadPhaseStats is the raw client-side accounting of one phase run.
type overloadPhaseStats struct {
	admitted, completed, hits       atomic.Int64
	infeasible, backlogged, breaker atomic.Int64
	probes, probeAdmits             atomic.Int64
	maxWaitNanos                    atomic.Int64
	latMu                           sync.Mutex
	lats                            []float64
	abusiveShed                     atomic.Int64
	durationSeconds                 float64
}

func atomicMaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runOverloadPhase drives the streams against a fresh scheduler built from
// cfg for warmup + Duration and returns the client-side accounting. With
// probes set, a side stream submits deliberately infeasible jobs (1ns of
// deadline slack) after warmup and records whether any were admitted.
func runOverloadPhase(cfg jobs.Config, opt OverloadOptions, streams []overloadStream, probes bool) (*overloadPhaseStats, error) {
	s := jobs.New(cfg)
	ps := &overloadPhaseStats{}
	work := calibrated(opt.IterNs)
	want := float64(opt.N)
	base := jobs.Request{
		N:           opt.N,
		Label:       "overload",
		Commutative: true,
		Combine:     func(a, b float64) float64 { return a + b },
		RBody: func(w, lo, hi int, acc float64) float64 {
			workload.Consume(work.Run(lo, hi))
			return acc + float64(hi-lo)
		},
	}

	var (
		measuring atomic.Bool
		stop      atomic.Bool
		firstErr  atomic.Value
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		stop.Store(true)
	}
	type inflight struct {
		j        *jobs.Job
		start    time.Time
		deadline time.Time
	}
	var wg sync.WaitGroup
	runStream := func(spec overloadStream) {
		defer wg.Done()
		window := make([]inflight, 0, spec.window)
		settle := func(f inflight) bool {
			v, err := f.j.Wait()
			done := time.Now()
			if err != nil {
				fail(err)
				return false
			}
			if v != want {
				fail(fmt.Errorf("bench: overload %s job returned %v, want %v", spec.tenant, v, want))
				return false
			}
			if measuring.Load() {
				ps.completed.Add(1)
				hit := f.deadline.IsZero() || !done.After(f.deadline)
				if spec.record {
					if hit {
						ps.hits.Add(1)
					}
					ps.latMu.Lock()
					ps.lats = append(ps.lats, done.Sub(f.start).Seconds())
					ps.latMu.Unlock()
				}
			}
			return true
		}
		for !stop.Load() {
			r := base
			r.Tenant = spec.tenant
			r.NoWait = spec.noWait
			var deadline time.Time
			if spec.budget > 0 {
				deadline = time.Now().Add(spec.budget)
				r.Deadline = deadline
			}
			submitStart := time.Now()
			j, err := s.Submit(r)
			atomicMaxInt64(&ps.maxWaitNanos, time.Since(submitStart).Nanoseconds())
			if err != nil {
				switch {
				case errors.Is(err, jobs.ErrInfeasible):
					if measuring.Load() {
						ps.infeasible.Add(1)
					}
				case errors.Is(err, jobs.ErrBacklogged):
					if measuring.Load() {
						ps.backlogged.Add(1)
					}
				case errors.Is(err, jobs.ErrBreakerOpen):
					if measuring.Load() {
						ps.breaker.Add(1)
						if spec.tenant == overloadAbusiveTenant {
							ps.abusiveShed.Add(1)
						}
					}
				default:
					fail(err)
					return
				}
				// Back off as the rejection suggests. Backlog/infeasible
				// hints are capped low so a shedding phase still re-offers
				// load often enough to measure; an open breaker's hint is
				// honored in full — hammering it anyway would burn the CPU
				// the breaker just freed for the well-behaved tenant (and is
				// exactly what a compliant client would not do).
				delay, _ := jobs.SuggestedRetry(err)
				limit := 2 * time.Millisecond
				if errors.Is(err, jobs.ErrBreakerOpen) {
					limit = opt.BreakerCooldown
				}
				if delay <= 0 || delay > limit {
					delay = limit
				}
				time.Sleep(delay)
				continue
			}
			if measuring.Load() {
				ps.admitted.Add(1)
			}
			window = append(window, inflight{j, submitStart, deadline})
			if len(window) < spec.window {
				continue
			}
			var f inflight
			f, window = window[0], window[1:]
			if !settle(f) {
				return
			}
		}
		for _, f := range window {
			if !settle(f) {
				return
			}
		}
	}
	for _, spec := range streams {
		for i := 0; i < spec.count; i++ {
			wg.Add(1)
			go runStream(spec)
		}
	}
	if probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(opt.Duration / 50)
			defer ticker.Stop()
			for !stop.Load() {
				<-ticker.C
				// Warmup feeds the run-time estimate; probe only once the
				// feasibility check has data, and only count measured ones.
				if !measuring.Load() {
					continue
				}
				r := base
				r.Tenant = overloadGoodTenant
				r.Deadline = time.Now().Add(time.Nanosecond)
				j, err := s.Submit(r)
				ps.probes.Add(1)
				if err != nil {
					if !errors.Is(err, jobs.ErrInfeasible) {
						// A full queue may backlog the probe before the
						// feasibility check ever sees it; that is still a
						// shed, not an admit.
						if !errors.Is(err, jobs.ErrBacklogged) && !errors.Is(err, jobs.ErrBreakerOpen) {
							fail(err)
							return
						}
					}
					continue
				}
				ps.probeAdmits.Add(1)
				if _, err := j.Wait(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	time.Sleep(opt.Duration / 4) // warmup: queues fill, run-time estimate warms
	measuring.Store(true)
	start := time.Now()
	time.Sleep(opt.Duration)
	measuring.Store(false)
	ps.durationSeconds = time.Since(start).Seconds()
	stop.Store(true)
	wg.Wait()
	s.Close()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return ps, err
	}
	return ps, nil
}

// phaseResult folds raw phase stats into the reported form.
func (ps *overloadPhaseStats) result(streams int) OverloadPhaseResult {
	res := OverloadPhaseResult{
		Streams:          streams,
		DurationSeconds:  ps.durationSeconds,
		Admitted:         ps.admitted.Load(),
		Completed:        ps.completed.Load(),
		DeadlineHits:     ps.hits.Load(),
		InfeasibleShed:   ps.infeasible.Load(),
		BackloggedShed:   ps.backlogged.Load(),
		InfeasibleProbes: ps.probes.Load(),
		InfeasibleAdmits: ps.probeAdmits.Load(),
	}
	res.ShedTotal = res.InfeasibleShed + res.BackloggedShed + ps.breaker.Load()
	if offered := res.Admitted + res.ShedTotal; offered > 0 {
		res.ShedFraction = float64(res.ShedTotal) / float64(offered)
	}
	if res.DurationSeconds > 0 {
		res.GoodputJobsPerSecond = float64(res.DeadlineHits) / res.DurationSeconds
	}
	res.MaxSubmitWaitSeconds = time.Duration(ps.maxWaitNanos.Load()).Seconds()
	if len(ps.lats) > 0 {
		q := stats.Quantiles(ps.lats, 0.5, 0.95, 0.99)
		res.P50Seconds, res.P95Seconds, res.P99Seconds = q[0], q[1], q[2]
	}
	return res
}

// RunOverload runs the full scenario: baseline capacity, 2x overload with
// shedding armed, and the breaker isolation pair. Jobs are verified
// reductions; a wrong answer fails the run.
func RunOverload(opt OverloadOptions) (OverloadReport, error) {
	opt.normalize()
	rep := OverloadReport{
		Workers:        opt.Workers,
		QueueDepth:     opt.QueueDepth,
		MaxWaitSeconds: opt.MaxWait.Seconds(),
	}
	shedCfg := jobs.Config{
		Workers:        opt.Workers,
		QueueDepth:     opt.QueueDepth,
		MaxWait:        opt.MaxWait,
		ShedInfeasible: true,
		Name:           "overload",
	}

	// Phase 1: single capacity, admission control armed but quiescent.
	good := overloadStream{
		tenant: overloadGoodTenant, count: opt.Streams, window: opt.Window,
		budget: opt.Deadline, record: true,
	}
	ps, err := runOverloadPhase(shedCfg, opt, []overloadStream{good}, false)
	if err != nil {
		return rep, err
	}
	rep.Baseline = ps.result(opt.Streams)

	// Phase 2: twice the offered load, half of it failing fast with NoWait,
	// plus the infeasible probe stream. Shedding must keep goodput at the
	// baseline level and every probe out of the queue.
	double := good
	double.count = opt.Streams
	noWait := good
	noWait.count = opt.Streams
	noWait.noWait = true
	ps, err = runOverloadPhase(shedCfg, opt, []overloadStream{double, noWait}, true)
	if err != nil {
		return rep, err
	}
	rep.Overload = ps.result(2 * opt.Streams)
	if rep.Baseline.GoodputJobsPerSecond > 0 {
		rep.GoodputRatio = rep.Overload.GoodputJobsPerSecond / rep.Baseline.GoodputJobsPerSecond
	}

	// Phase 3: breaker isolation. The abusive tenant floods with deadlines
	// it can never hit (admitted — feasibility shedding is off here so the
	// breaker, not the feasibility check, is the protection under test),
	// burning its SLO until the breaker opens and sheds it at intake. The
	// well-behaved tenant's p99 is compared to a run where it has the
	// scheduler to itself.
	breakerCfg := jobs.Config{
		Workers:         opt.Workers,
		QueueDepth:      opt.QueueDepth,
		MaxWait:         opt.MaxWait,
		BreakerBurnRate: opt.BreakerBurnRate,
		BreakerCooldown: opt.BreakerCooldown,
		Name:            "overload-breaker",
	}
	steady := overloadStream{
		tenant: overloadGoodTenant, count: (opt.Streams + 1) / 2, window: 2,
		budget: opt.Deadline, record: true,
	}
	abusive := overloadStream{
		tenant: overloadAbusiveTenant, count: 2 * opt.Streams, window: opt.Window,
		budget: time.Microsecond,
	}
	// The pair is repeated and the median p99 of each side reported: one
	// p99 sample per side would make the ratio a coin flip on a small or
	// shared machine (the phases run back to back, so ambient noise hits
	// both sides roughly equally across repetitions).
	isoP99s := make([]float64, 0, opt.Reps)
	mixedP99s := make([]float64, 0, opt.Reps)
	for rep_ := 0; rep_ < opt.Reps; rep_++ {
		ps, err = runOverloadPhase(breakerCfg, opt, []overloadStream{steady}, false)
		if err != nil {
			return rep, err
		}
		iso := ps.result(steady.count)
		isoP99s = append(isoP99s, iso.P99Seconds)
		rep.Breaker.GoodJobsIsolated += iso.Completed

		ps, err = runOverloadPhase(breakerCfg, opt, []overloadStream{steady, abusive}, false)
		if err != nil {
			return rep, err
		}
		mixed := ps.result(steady.count)
		mixedP99s = append(mixedP99s, mixed.P99Seconds)
		rep.Breaker.GoodJobsMixed += mixed.Completed
		rep.Breaker.AbusiveShed += ps.abusiveShed.Load()
	}
	rep.Breaker.IsolatedP99Seconds = median(isoP99s)
	rep.Breaker.MixedP99Seconds = median(mixedP99s)
	rep.Breaker.BreakerOpened = rep.Breaker.AbusiveShed > 0
	if rep.Breaker.MixedP99Seconds > 0 {
		rep.Breaker.GoodP99Ratio = rep.Breaker.IsolatedP99Seconds / rep.Breaker.MixedP99Seconds
	}
	return rep, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// WriteOverload renders the report as a table.
func WriteOverload(w io.Writer, rep OverloadReport) error {
	fmt.Fprintf(w, "Overload protection scenario: %d workers, queue %d, max wait %.0fms\n",
		rep.Workers, rep.QueueDepth, rep.MaxWaitSeconds*1e3)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tstreams\tgoodput (jobs/s)\tp99 (ms)\tshed %\tmax submit wait (ms)\tinfeasible admits")
	row := func(name string, r OverloadPhaseResult) {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.3f\t%.1f\t%.3f\t%d/%d\n",
			name, r.Streams, r.GoodputJobsPerSecond, r.P99Seconds*1e3,
			r.ShedFraction*100, r.MaxSubmitWaitSeconds*1e3, r.InfeasibleAdmits, r.InfeasibleProbes)
	}
	row("baseline", rep.Baseline)
	row("overload", rep.Overload)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ngoodput at 2x offered load: %.2fx baseline\n", rep.GoodputRatio)
	fmt.Fprintf(w, "breaker isolation: good-tenant p99 %.3fms isolated vs %.3fms mixed (ratio %.2f); abusive submissions shed: %d (breaker opened: %v)\n",
		rep.Breaker.IsolatedP99Seconds*1e3, rep.Breaker.MixedP99Seconds*1e3,
		rep.Breaker.GoodP99Ratio, rep.Breaker.AbusiveShed, rep.Breaker.BreakerOpened)
	return nil
}
