package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// WriteTable1 renders the burden rows in the layout of the paper's Table 1,
// adding the paper's own numbers and the fit diagnostics for comparison.
func WriteTable1(w io.Writer, rows []BurdenResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 1. Characterizing scheduler burden")
	fmt.Fprintln(tw, "scheduler\td (us)\tpaper d (us)\td intercept (us)\teff. P\tR2\tbreak-even (us)")
	for _, r := range rows {
		paper := "-"
		if r.PaperBurdenUs > 0 {
			paper = fmt.Sprintf("%.2f", r.PaperBurdenUs)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%s\t%.2f\t%.1f\t%.3f\t%.2f\n",
			r.Scheduler, r.BurdenUs(), paper, r.Fit.DIntercept*1e6, r.Fit.EffectiveP, r.Fit.R2, r.Fit.BreakEven()*1e6)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Headline ratios reported in the paper's abstract: fine-grain vs
	// OpenMP static and vs Cilk.
	byName := make(map[string]BurdenResult, len(rows))
	for _, r := range rows {
		byName[r.Scheduler] = r
	}
	fg, okFG := byName["fine-grain-tree"]
	om, okOM := byName["openmp-static"]
	ck, okCK := byName["cilk"]
	if okFG && okOM {
		fmt.Fprintf(w, "\nfine-grain vs OpenMP static: %s lower burden (fitted d), %s lower (intercept)  [paper: 43%% lower]\n",
			lowerPct(fg.Fit.D, om.Fit.D), lowerPct(fg.Fit.DIntercept, om.Fit.DIntercept))
	}
	if okFG && okCK {
		fmt.Fprintf(w, "fine-grain vs Cilk: %s lower burden (fitted d), %s lower (intercept)  [paper: 12.1x lower]\n",
			lowerFactor(fg.Fit.D, ck.Fit.D), lowerFactor(fg.Fit.DIntercept, ck.Fit.DIntercept))
	}
	return nil
}

// lowerPct formats how much lower burden a is than b, in percent. A fit
// clamped to d <= 0 has no meaningful ratio, so either side <= 0 gives n/a.
func lowerPct(a, b float64) string {
	if a <= 0 || b <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*(1-a/b))
}

// lowerFactor formats how many times lower burden a is than b, or n/a when
// either side is <= 0.
func lowerFactor(a, b float64) string {
	if a <= 0 || b <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", b/a)
}

// WriteSweep renders the raw granularity sweep behind one Table 1 row.
func WriteSweep(w io.Writer, r BurdenResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "sweep for %s (P=%d)\n", r.Scheduler, r.Workers)
	fmt.Fprintln(tw, "iterations\tseq (us)\tpar (us)\tspeedup\tmodel speedup")
	for _, p := range r.Sweep {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.2f\n",
			p.N, p.SeqNs/1e3, p.ParNs/1e3, p.Speedup, r.Fit.Model(p.SeqNs*1e-9))
	}
	return tw.Flush()
}

// WriteMPDATA renders both panels of Figure 2 as aligned series.
func WriteMPDATA(w io.Writer, res MPDATAResult) error {
	fmt.Fprintf(w, "Figure 2. MPDATA (grid: %d points, %d edges, %d steps; sequential %.3fs)\n",
		res.GridPoints, res.GridEdges, res.Steps, res.SequentialSeconds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "threads"
	for _, s := range res.Series {
		header += "\t" + s.Scheduler
	}
	if len(res.Ratio) > 0 {
		header += "\tfine-grain / openmp"
	}
	fmt.Fprintln(tw, header)
	nPoints := 0
	if len(res.Series) > 0 {
		nPoints = len(res.Series[0].Points)
	}
	for i := 0; i < nPoints; i++ {
		line := fmt.Sprintf("%d", res.Series[0].Points[i].Threads)
		for _, s := range res.Series {
			if i < len(s.Points) {
				line += fmt.Sprintf("\t%.2f", s.Points[i].Speedup)
			} else {
				line += "\t-"
			}
		}
		if i < len(res.Ratio) {
			line += fmt.Sprintf("\t%.2f", res.Ratio[i].Speedup)
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if n := len(res.Ratio); n > 0 {
		last := res.Ratio[n-1]
		fmt.Fprintf(w, "\nfine-grain over OpenMP at %d threads: %+.0f%% (paper: up to +22%% at 48 threads)\n",
			last.Threads, 100*(last.Speedup-1))
	}
	return nil
}

// WriteLinreg renders one panel of Figure 3.
func WriteLinreg(w io.Writer, res LinregResult, panel string) error {
	fmt.Fprintf(w, "Figure 3%s. Linear regression (%d points, sequential %.3fs, fit y=%.3fx%+.2f R2=%.3f)\n",
		panel, res.Points, res.SequentialSeconds, res.Fit.Slope, res.Fit.Intercept, res.Fit.R2)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "threads\t%s\t%s\tratio\n", res.Baseline.Scheduler, res.FineGrain.Scheduler)
	for i := range res.Baseline.Points {
		ratio := "-"
		if i < len(res.FineGrain.Points) && res.Baseline.Points[i].Speedup > 0 {
			ratio = fmt.Sprintf("%.2f", res.FineGrain.Points[i].Speedup/res.Baseline.Points[i].Speedup)
		}
		fgSpeed := "-"
		if i < len(res.FineGrain.Points) {
			fgSpeed = fmt.Sprintf("%.2f", res.FineGrain.Points[i].Speedup)
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%s\t%s\n",
			res.Baseline.Points[i].Threads, res.Baseline.Points[i].Speedup, fgSpeed, ratio)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbest fine-grain speedup over %s: %.2fx (paper best case: 2.8x)\n",
		res.Baseline.Scheduler, res.BestSpeedupOverBaseline)
	return nil
}

// WriteMultitenant renders the multi-tenant throughput scenario: aggregate
// job and iteration throughput of many concurrent tenants sharing one worker
// team, with the scheduler's latency percentiles.
func WriteMultitenant(w io.Writer, res MultitenantResult) error {
	fmt.Fprintf(w, "Multi-tenant job throughput (%d tenants x %d-iteration %q jobs on %d shared workers)\n",
		res.Tenants, res.Iterations, res.Workload, res.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "jobs\twall (s)\tjobs/s\titer/s\tlat p50\tlat p95\tlat p99")
	fmt.Fprintf(tw, "%d\t%.3f\t%.1f\t%.3g\t%s\t%s\t%s\n",
		res.JobsTotal, res.WallSeconds, res.JobsPerSecond, res.IterationsPerSecond,
		res.Stats.LatencyP50, res.Stats.LatencyP95, res.Stats.LatencyP99)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncompleted %d jobs (%d canceled), %d iterations total, no full barrier paid by any job\n",
		res.Stats.Completed, res.Stats.Canceled, res.Stats.IterationsDone)
	return nil
}

// Markdown helpers used by EXPERIMENTS.md generation in the cmd tools.

// Table1Markdown renders the burden rows as a GitHub-flavoured markdown table.
func Table1Markdown(rows []BurdenResult) string {
	var b strings.Builder
	b.WriteString("| scheduler | measured d (µs) | paper d (µs) |\n|---|---|---|\n")
	for _, r := range rows {
		paper := "—"
		if r.PaperBurdenUs > 0 {
			paper = fmt.Sprintf("%.2f", r.PaperBurdenUs)
		}
		fmt.Fprintf(&b, "| %s | %.2f | %s |\n", r.Scheduler, r.BurdenUs(), paper)
	}
	return b.String()
}
