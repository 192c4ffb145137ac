package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/workload"
)

// calCache memoizes workload.Calibrate per target ns/iteration, so building
// a job request is allocation-only on the serving hot path: cmd/loopd builds
// one request per submitted job, and without the cache every HTTP job would
// re-run the calibration probe.
var calCache sync.Map // float64 target ns -> workload.Work

// calibrated returns the calibrated work for the target per-iteration cost,
// measuring at most once per distinct target.
func calibrated(targetNs float64) workload.Work {
	if w, ok := calCache.Load(targetNs); ok {
		return w.(workload.Work)
	}
	w := workload.Calibrate(targetNs)
	calCache.Store(targetNs, w)
	return w
}

// JobParams parameterizes a named job workload.
type JobParams struct {
	// N is the iteration count; <= 0 selects 4096 (the order of the paper's
	// MPDATA loops).
	N int
	// IterNs is the target per-iteration cost in nanoseconds for calibrated
	// workloads; <= 0 selects 100.
	IterNs float64
	// MaxWorkers caps the job's sub-team; <= 0 leaves it to the scheduler.
	MaxWorkers int
	// Grain is the minimum iterations per worker; <= 0 leaves the default.
	Grain int
}

func (p *JobParams) normalize() {
	if p.N <= 0 {
		p.N = 4096
	}
	if p.IterNs <= 0 {
		p.IterNs = 100
	}
}

// jobWorkloads maps workload names to request builders. These are the named
// workloads cmd/loopd serves and the multitenant scenario drives.
var jobWorkloads = map[string]func(p JobParams) jobs.Request{
	// spin: a calibrated busy-work loop, the body of the Table 1 burden
	// micro-benchmark.
	"spin": func(p JobParams) jobs.Request {
		work := calibrated(p.IterNs)
		return jobs.Request{
			N:     p.N,
			Label: "spin",
			Body: func(w, lo, hi int) {
				workload.Consume(work.Run(lo, hi))
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	},
	// spinskew: busy work whose per-iteration cost grows linearly across the
	// iteration space (the last iteration costs ~8x the first). Under static
	// block partitioning the top block dominates and k-1 sub-workers idle
	// behind one straggler; chunked self-scheduling balances it.
	"spinskew": func(p JobParams) jobs.Request {
		work := calibrated(p.IterNs)
		n := p.N
		return jobs.Request{
			N:     n,
			Label: "spinskew",
			Body: func(w, lo, hi int) {
				var acc uint64
				for i := lo; i < hi; i++ {
					for rep := 0; rep <= 7*i/n; rep++ {
						acc += work.Iter(i)
					}
				}
				workload.Consume(acc)
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	},
	// sum: the canonical reducing loop (sum of the iteration index), whose
	// result the caller can verify as n(n-1)/2. Integer-valued and
	// commutative, so the elastic arrival-order fold stays bit-exact.
	"sum": func(p JobParams) jobs.Request {
		return jobs.Request{
			N:           p.N,
			Label:       "sum",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += float64(i)
				}
				return acc
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	},
	// spinsum: calibrated busy work folded into a scalar reduction — the
	// shape of the map-reduce kernels of Figure 3, with a checkable result.
	"spinsum": func(p JobParams) jobs.Request {
		work := calibrated(p.IterNs)
		return jobs.Request{
			N:           p.N,
			Label:       "spinsum",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				workload.Consume(work.Run(lo, hi))
				return acc + float64(hi-lo)
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	},
}

// JobWorkloads returns the registered job workload names in sorted order.
func JobWorkloads() []string {
	out := make([]string, 0, len(jobWorkloads))
	for name := range jobWorkloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownWorkload reports a job workload name with no registration;
// serving layers match it with errors.Is to answer with the known names.
var ErrUnknownWorkload = errors.New("unknown job workload")

// NewJobRequest builds the named job workload with the given parameters.
func NewJobRequest(name string, p JobParams) (jobs.Request, error) {
	f, ok := jobWorkloads[name]
	if !ok {
		return jobs.Request{}, fmt.Errorf("bench: %w %q (known: %v)", ErrUnknownWorkload, name, JobWorkloads())
	}
	p.normalize()
	return f(p), nil
}

// MultitenantOptions configures the multi-tenant throughput scenario: many
// concurrent tenants submit parallel-loop jobs to one shared worker team.
type MultitenantOptions struct {
	// Workers is the shared team size; <= 0 selects GOMAXPROCS.
	Workers int
	// Tenants is the number of concurrent submitters; <= 0 selects 8.
	Tenants int
	// JobsPerTenant is the number of jobs each tenant submits back to back
	// (submit, wait, repeat — the request/response shape of a serving
	// system); <= 0 selects 20.
	JobsPerTenant int
	// Workload is the job workload name; empty selects "spinsum".
	Workload string
	// Params parameterizes each job.
	Params JobParams
	// MaxWorkersPerJob caps every job's sub-team; <= 0 leaves no cap.
	MaxWorkersPerJob int
	// QueueDepth bounds the admission queue; <= 0 selects the default.
	QueueDepth int
	// DisableElastic freezes sub-teams at admission (rigid static blocks),
	// for comparing against the elastic scheduler.
	DisableElastic bool
}

func (o *MultitenantOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Tenants <= 0 {
		o.Tenants = 8
	}
	if o.JobsPerTenant <= 0 {
		o.JobsPerTenant = 20
	}
	if o.Workload == "" {
		o.Workload = "spinsum"
	}
	o.Params.normalize()
}

// MultitenantResult is the aggregate outcome of the scenario.
type MultitenantResult struct {
	Workers   int
	Tenants   int
	JobsTotal int
	Workload  string
	// Iterations is the per-job iteration count.
	Iterations int
	// WallSeconds is the end-to-end duration of the whole run.
	WallSeconds float64
	// JobsPerSecond is the aggregate job throughput.
	JobsPerSecond float64
	// IterationsPerSecond is the aggregate loop-iteration throughput.
	IterationsPerSecond float64
	// Stats is the scheduler's final snapshot (queue drained).
	Stats jobs.Stats
}

// RunMultitenant drives Tenants concurrent job streams through one shared
// jobs scheduler and reports aggregate throughput. Reducing workloads are
// verified against their closed-form results; a wrong answer fails the run.
func RunMultitenant(opt MultitenantOptions) (MultitenantResult, error) {
	opt.normalize()
	if _, err := NewJobRequest(opt.Workload, opt.Params); err != nil {
		return MultitenantResult{}, err
	}
	s := jobs.New(jobs.Config{
		Workers:          opt.Workers,
		MaxWorkersPerJob: opt.MaxWorkersPerJob,
		QueueDepth:       opt.QueueDepth,
		DisableElastic:   opt.DisableElastic,
		Name:             "multitenant",
	})
	res := MultitenantResult{
		Workers:    s.P(),
		Tenants:    opt.Tenants,
		JobsTotal:  opt.Tenants * opt.JobsPerTenant,
		Workload:   opt.Workload,
		Iterations: opt.Params.N,
	}

	var wg sync.WaitGroup
	errs := make(chan error, opt.Tenants)
	start := time.Now()
	for t := 0; t < opt.Tenants; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opt.JobsPerTenant; i++ {
				req, err := NewJobRequest(opt.Workload, opt.Params)
				if err != nil {
					errs <- err
					return
				}
				j, err := s.Submit(req)
				if err != nil {
					errs <- err
					return
				}
				v, err := j.Wait()
				if err != nil {
					errs <- err
					return
				}
				if want, ok := expectedResult(opt.Workload, opt.Params.N); ok && v != want {
					errs <- fmt.Errorf("bench: %s job returned %v, want %v", opt.Workload, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	close(errs)
	for err := range errs {
		s.Close()
		return res, err
	}
	res.Stats = s.Stats()
	s.Close()
	if res.WallSeconds > 0 {
		res.JobsPerSecond = float64(res.JobsTotal) / res.WallSeconds
		res.IterationsPerSecond = float64(res.JobsTotal) * float64(opt.Params.N) / res.WallSeconds
	}
	return res, nil
}

// expectedResult returns the closed-form result of a reducing workload, when
// it has one.
func expectedResult(workload string, n int) (float64, bool) {
	switch workload {
	case "sum":
		return float64(n) * float64(n-1) / 2, true
	case "spinsum":
		return float64(n), true
	default:
		return 0, false
	}
}
