package bench

// traceoverhead.go measures what lifecycle tracing costs the runtime: the
// fairshare scenario (admission-policy-bound, one scheduler) and the
// shardburst scenario (dispatcher-bound, sharded pool) each run untraced and
// traced — tracer wired in, one live subscriber draining the event feed, the
// realistic worst case for the hot-path hooks — and the report records the
// throughput ratio. The acceptance budgets: tracing off is free (the hooks
// are a nil check), tracing on stays within a few percent.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"loopsched/internal/trace"
)

// TraceOverheadOptions configures the trace-overhead comparison.
type TraceOverheadOptions struct {
	// Reps is the number of runs per configuration; the best (highest
	// jobs/s) run of each is compared, which filters scheduler-independent
	// noise (GC, machine load) out of the ratio. <= 0 selects 5: the
	// shardburst scenario is short enough that best-of-3 still carries
	// percent-level noise into the overhead fraction.
	Reps int
	// FairShare and ShardBurst are the underlying scenarios' options; their
	// Tracer fields are overwritten per configuration.
	FairShare  FairShareOptions
	ShardBurst ShardBurstOptions
}

func (o *TraceOverheadOptions) normalize() {
	if o.Reps <= 0 {
		o.Reps = 5
	}
}

// TraceOverheadScenario is the off-vs-on outcome of one scenario.
type TraceOverheadScenario struct {
	Name string `json:"name"`
	// OffJobsPerSecond and OnJobsPerSecond are the best-of-reps throughputs
	// with tracing off and on.
	OffJobsPerSecond float64 `json:"off_jobs_per_second"`
	OnJobsPerSecond  float64 `json:"on_jobs_per_second"`
	// OverheadFraction is 1 - on/off: 0.03 means tracing cost 3% of the
	// untraced throughput (negative means the traced run won the noise).
	OverheadFraction float64 `json:"overhead_fraction"`
	// EventsTotal and DroppedTotal are the traced runs' tracer accounting,
	// summed over reps (drops mean the draining subscriber fell behind).
	EventsTotal  int64 `json:"events_total"`
	DroppedTotal int64 `json:"dropped_total"`
}

// TraceOverheadReport is the machine-readable outcome, serialised to
// BENCH_traceoverhead.json so the tracing cost is tracked across PRs.
type TraceOverheadReport struct {
	Reps      int                     `json:"reps"`
	Scenarios []TraceOverheadScenario `json:"scenarios"`
	// MaxOverheadFraction is the worst scenario's overhead: the number the
	// acceptance budget is asserted against.
	MaxOverheadFraction float64 `json:"max_overhead_fraction"`
}

// drainTracer subscribes to tr and discards events until the returned stop
// function runs: the traced configurations pay for real deliveries, not just
// for emission into the void.
func drainTracer(tr *trace.Tracer) (stop func()) {
	sub := tr.Subscribe(1<<14, "", 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-sub.Events():
			case <-done:
				return
			}
		}
	}()
	return func() {
		done <- struct{}{}
		<-done
		sub.Close()
	}
}

// runTraceOverheadScenario runs one scenario Reps times per configuration
// and fills the off/on throughputs and the overhead fraction.
func runTraceOverheadScenario(name string, reps int, run func(tr *trace.Tracer) (float64, error)) (TraceOverheadScenario, error) {
	sc := TraceOverheadScenario{Name: name}
	for rep := 0; rep < reps; rep++ {
		jps, err := run(nil)
		if err != nil {
			return sc, fmt.Errorf("bench: %s untraced rep %d: %w", name, rep, err)
		}
		if jps > sc.OffJobsPerSecond {
			sc.OffJobsPerSecond = jps
		}
	}
	for rep := 0; rep < reps; rep++ {
		tr := trace.NewTracer(1024)
		stop := drainTracer(tr)
		jps, err := run(tr)
		stop()
		if err != nil {
			return sc, fmt.Errorf("bench: %s traced rep %d: %w", name, rep, err)
		}
		st := tr.Stats()
		sc.EventsTotal += st.EventsTotal
		sc.DroppedTotal += st.DroppedTotal
		if jps > sc.OnJobsPerSecond {
			sc.OnJobsPerSecond = jps
		}
	}
	if sc.OffJobsPerSecond > 0 {
		sc.OverheadFraction = 1 - sc.OnJobsPerSecond/sc.OffJobsPerSecond
	}
	return sc, nil
}

// RunTraceOverhead runs the comparison on both scenarios.
func RunTraceOverhead(opt TraceOverheadOptions) (TraceOverheadReport, error) {
	opt.normalize()
	rep := TraceOverheadReport{Reps: opt.Reps}

	fair, err := runTraceOverheadScenario("fairshare", opt.Reps, func(tr *trace.Tracer) (float64, error) {
		o := opt.FairShare
		o.Tracer = tr
		res, err := RunFairShare(o)
		return res.JobsPerSecond, err
	})
	if err != nil {
		return rep, err
	}
	rep.Scenarios = append(rep.Scenarios, fair)

	burst, err := runTraceOverheadScenario("shardburst", opt.Reps, func(tr *trace.Tracer) (float64, error) {
		o := opt.ShardBurst
		o.Tracer = tr
		res, err := RunShardBurst(o)
		return res.JobsPerSecond, err
	})
	if err != nil {
		return rep, err
	}
	rep.Scenarios = append(rep.Scenarios, burst)

	for _, sc := range rep.Scenarios {
		if sc.OverheadFraction > rep.MaxOverheadFraction {
			rep.MaxOverheadFraction = sc.OverheadFraction
		}
	}
	return rep, nil
}

// WriteTraceOverhead renders the comparison as a table.
func WriteTraceOverhead(w io.Writer, rep TraceOverheadReport) error {
	fmt.Fprintf(w, "Lifecycle-tracing overhead (best of %d reps per configuration, traced runs drained by a live subscriber)\n", rep.Reps)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\toff jobs/s\ton jobs/s\toverhead\tevents\tdropped")
	for _, sc := range rep.Scenarios {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f%%\t%d\t%d\n",
			sc.Name, sc.OffJobsPerSecond, sc.OnJobsPerSecond, sc.OverheadFraction*100,
			sc.EventsTotal, sc.DroppedTotal)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nworst-case tracing overhead: %.2f%% of untraced throughput\n", rep.MaxOverheadFraction*100)
	return nil
}

// quickTraceOverheadOptions is the smoke-run configuration shared by the
// scenario registry and the test suite.
func quickTraceOverheadOptions() TraceOverheadOptions {
	return TraceOverheadOptions{
		Reps:       2,
		FairShare:  FairShareOptions{Workers: 4, Duration: 200 * time.Millisecond, N: 1024},
		ShardBurst: ShardBurstOptions{Workers: 4, Shards: 2, Tenants: 8, JobsPerTenant: 10, N: 256},
	}
}
