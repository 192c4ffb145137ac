package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/stats"
)

// BurstOptions configures the convoy scenario: one big job grabs the whole
// team, then a burst of small tenants arrives a moment later. With rigid
// sub-teams the burst convoys behind the big job's full run time; elastic
// sub-teams peel workers off the big job chunk-by-chunk and serve the burst
// immediately.
type BurstOptions struct {
	// Workers is the shared team size; <= 0 selects GOMAXPROCS (capped at 8
	// so the scenario stays meaningful on huge machines).
	Workers int
	// BigN is the iteration count of the convoy-inducing job; <= 0 selects
	// 8192.
	BigN int
	// BurstJobs is the number of small tenants arriving after the big job;
	// <= 0 selects 8.
	BurstJobs int
	// BurstN is the per-burst-job iteration count; <= 0 selects 256.
	BurstN int
	// IterNs is the target per-iteration cost of the big job; <= 0 selects
	// 2000 (a few-µs-per-chunk busy loop).
	IterNs float64
	// DisableElastic freezes sub-teams at admission (the pre-elastic
	// scheduler) for comparison.
	DisableElastic bool
}

func (o *BurstOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.BigN <= 0 {
		o.BigN = 8192
	}
	if o.BurstJobs <= 0 {
		o.BurstJobs = 8
	}
	if o.BurstN <= 0 {
		o.BurstN = 256
	}
	if o.IterNs <= 0 {
		o.IterNs = 2000
	}
}

// BurstResult is the outcome of one burst run.
type BurstResult struct {
	Elastic   bool
	Workers   int
	BurstJobs int
	// BigSeconds is the big job's end-to-end latency.
	BigSeconds float64
	// BurstP50/P95/Max are latency quantiles (submission to completion) over
	// the burst tenants — the convoy signature.
	BurstP50 float64
	BurstP95 float64
	BurstMax float64
	Grown    int64
	Peeled   int64
}

// RunBurst runs the convoy scenario once and reports the burst tenants'
// latency distribution. The burst jobs are verified reductions; a wrong
// answer fails the run.
func RunBurst(opt BurstOptions) (BurstResult, error) {
	opt.normalize()
	s := jobs.New(jobs.Config{
		Workers:        opt.Workers,
		DisableElastic: opt.DisableElastic,
		Name:           "burst",
	})
	defer s.Close()
	res := BurstResult{Elastic: !opt.DisableElastic, Workers: s.P(), BurstJobs: opt.BurstJobs}

	bigReq, err := NewJobRequest("spin", JobParams{N: opt.BigN, IterNs: opt.IterNs})
	if err != nil {
		return res, err
	}
	bigStart := time.Now()
	big, err := s.Submit(bigReq)
	if err != nil {
		return res, err
	}
	// Let the big job be admitted (and, rigidly, grab the whole team)
	// before the burst arrives.
	for big.State() == jobs.Pending {
		time.Sleep(50 * time.Microsecond)
	}

	// Each tenant's latency is captured by its own waiter goroutine the
	// moment its job completes; waiting sequentially would inflate every
	// sample to the slowest earlier tenant's completion time.
	burst := make([]*jobs.Job, opt.BurstJobs)
	lats := make([]float64, opt.BurstJobs)
	errs := make([]error, opt.BurstJobs)
	vals := make([]float64, opt.BurstJobs)
	var wg sync.WaitGroup
	for i := range burst {
		req, err := NewJobRequest("sum", JobParams{N: opt.BurstN})
		if err != nil {
			return res, err
		}
		start := time.Now()
		if burst[i], err = s.Submit(req); err != nil {
			return res, err
		}
		wg.Add(1)
		go func(i int, start time.Time) {
			defer wg.Done()
			vals[i], errs[i] = burst[i].Wait()
			lats[i] = time.Since(start).Seconds()
		}(i, start)
	}
	wg.Wait()
	want := float64(opt.BurstN) * float64(opt.BurstN-1) / 2
	for i := range burst {
		if errs[i] != nil {
			return res, errs[i]
		}
		if vals[i] != want {
			return res, fmt.Errorf("bench: burst job %d returned %v, want %v", i, vals[i], want)
		}
	}
	if _, err := big.Wait(); err != nil {
		return res, err
	}
	res.BigSeconds = time.Since(bigStart).Seconds()
	sort.Float64s(lats)
	q := stats.Quantiles(lats, 0.5, 0.95)
	res.BurstP50, res.BurstP95 = q[0], q[1]
	res.BurstMax = lats[len(lats)-1]
	st := s.Stats()
	res.Grown, res.Peeled = st.Grown, st.Peeled
	return res, nil
}

// RunBurstComparison runs the burst scenario with elastic sub-teams on and
// off, same options otherwise — the flag-gated convoy comparison.
func RunBurstComparison(opt BurstOptions) (elastic, rigid BurstResult, err error) {
	opt.DisableElastic = true
	if rigid, err = RunBurst(opt); err != nil {
		return
	}
	opt.DisableElastic = false
	elastic, err = RunBurst(opt)
	return
}

// WriteBurst renders the elastic-vs-rigid convoy comparison.
func WriteBurst(w io.Writer, elastic, rigid BurstResult) error {
	fmt.Fprintf(w, "Burst-after-big-job (convoy) scenario: %d burst tenants behind one big job on %d shared workers\n",
		elastic.BurstJobs, elastic.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sub-teams\tburst p50 (ms)\tburst p95 (ms)\tburst max (ms)\tbig job (ms)\tgrown\tpeeled")
	row := func(name string, r BurstResult) {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\n",
			name, r.BurstP50*1e3, r.BurstP95*1e3, r.BurstMax*1e3, r.BigSeconds*1e3, r.Grown, r.Peeled)
	}
	row("rigid", rigid)
	row("elastic", elastic)
	if err := tw.Flush(); err != nil {
		return err
	}
	if rigid.BurstP95 > 0 {
		fmt.Fprintf(w, "\nelastic burst p95 is %.1fx lower than rigid\n", rigid.BurstP95/elastic.BurstP95)
	}
	return nil
}

// SkewOptions configures the straggler scenario: a single tenant runs jobs
// whose per-iteration cost grows linearly across the iteration space. Static
// blocks leave k-1 sub-workers idle behind the top block; chunked
// self-scheduling balances the skew.
type SkewOptions struct {
	// Workers is the team size; <= 0 selects GOMAXPROCS capped at 8.
	Workers int
	// N is the per-job iteration count; <= 0 selects 8192.
	N int
	// Jobs is the number of back-to-back skewed jobs; <= 0 selects 5.
	Jobs int
	// IterNs is the base per-iteration cost; <= 0 selects 500.
	IterNs float64
	// Grain overrides the self-scheduling chunk size; <= 0 uses the
	// scheduler heuristic.
	Grain int
	// DisableElastic uses rigid static blocks for comparison.
	DisableElastic bool
}

func (o *SkewOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.N <= 0 {
		o.N = 8192
	}
	if o.Jobs <= 0 {
		o.Jobs = 5
	}
	if o.IterNs <= 0 {
		o.IterNs = 500
	}
}

// SkewResult is the outcome of one skew run.
type SkewResult struct {
	Elastic bool
	Workers int
	Jobs    int
	// MeanSeconds is the mean per-job run time (admission to completion).
	MeanSeconds float64
	// TotalSeconds is the end-to-end duration of all jobs.
	TotalSeconds float64
}

// RunSkew runs the straggler scenario once.
func RunSkew(opt SkewOptions) (SkewResult, error) {
	opt.normalize()
	s := jobs.New(jobs.Config{
		Workers:        opt.Workers,
		DisableElastic: opt.DisableElastic,
		Name:           "skew",
	})
	defer s.Close()
	res := SkewResult{Elastic: !opt.DisableElastic, Workers: s.P(), Jobs: opt.Jobs}
	start := time.Now()
	for i := 0; i < opt.Jobs; i++ {
		req, err := NewJobRequest("spinskew", JobParams{N: opt.N, IterNs: opt.IterNs, Grain: opt.Grain})
		if err != nil {
			return res, err
		}
		j, err := s.Submit(req)
		if err != nil {
			return res, err
		}
		if _, err := j.Wait(); err != nil {
			return res, err
		}
	}
	res.TotalSeconds = time.Since(start).Seconds()
	res.MeanSeconds = res.TotalSeconds / float64(opt.Jobs)
	return res, nil
}

// RunSkewComparison runs the skew scenario elastically and rigidly.
func RunSkewComparison(opt SkewOptions) (elastic, rigid SkewResult, err error) {
	opt.DisableElastic = true
	if rigid, err = RunSkew(opt); err != nil {
		return
	}
	opt.DisableElastic = false
	elastic, err = RunSkew(opt)
	return
}

// WriteSkew renders the elastic-vs-rigid straggler comparison.
func WriteSkew(w io.Writer, elastic, rigid SkewResult) error {
	fmt.Fprintf(w, "Skewed-body (straggler) scenario: %d jobs of linearly skewed work on %d workers\n",
		elastic.Jobs, elastic.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sub-teams\tmean job (ms)\ttotal (ms)")
	fmt.Fprintf(tw, "rigid\t%.2f\t%.2f\n", rigid.MeanSeconds*1e3, rigid.TotalSeconds*1e3)
	fmt.Fprintf(tw, "elastic\t%.2f\t%.2f\n", elastic.MeanSeconds*1e3, elastic.TotalSeconds*1e3)
	if err := tw.Flush(); err != nil {
		return err
	}
	if elastic.MeanSeconds > 0 {
		fmt.Fprintf(w, "\nelastic mean job time is %.2fx rigid's\n", elastic.MeanSeconds/rigid.MeanSeconds)
	}
	return nil
}
