// Package bench is the experiment harness: it constructs the schedulers
// under test by name, runs the paper's three experiments (the burden
// micro-benchmark of Table 1, the MPDATA scaling study of Figure 2 and the
// map-reduce study of Figure 3) and formats their results as the tables and
// series the paper reports.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"loopsched/internal/cilk"
	"loopsched/internal/core"
	"loopsched/internal/hybrid"
	"loopsched/internal/omp"
	"loopsched/internal/sched"
)

// Factory builds a scheduler with p workers.
type Factory func(p int) sched.Scheduler

// LockThreads controls whether the schedulers of the paper's experiments
// (this registry's core-loop runtimes and the ablation variants) lock their
// workers to OS threads. It defaults to true (benchmark fidelity); the test
// suite turns it off because it creates and destroys many teams. The
// jobs-layer scenarios never lock: their workers park between jobs.
var LockThreads = true

// registry maps scheduler names to factories.
var registry = map[string]Factory{
	"sequential": func(p int) sched.Scheduler { return sched.NewSequential() },
	"fine-grain-tree": func(p int) sched.Scheduler {
		return core.New(core.Config{Workers: p, Barrier: core.BarrierTree, Mode: core.ModeHalf, LockOSThread: LockThreads})
	},
	"fine-grain-centralized": func(p int) sched.Scheduler {
		return core.New(core.Config{Workers: p, Barrier: core.BarrierCentralized, Mode: core.ModeHalf, LockOSThread: LockThreads})
	},
	"fine-grain-tree-full-barrier": func(p int) sched.Scheduler {
		return core.New(core.Config{Workers: p, Barrier: core.BarrierTree, Mode: core.ModeFull, LockOSThread: LockThreads})
	},
	"openmp-static": func(p int) sched.Scheduler {
		return omp.New(omp.Config{Workers: p, Schedule: omp.Static, LockOSThread: LockThreads})
	},
	"openmp-dynamic": func(p int) sched.Scheduler {
		return omp.New(omp.Config{Workers: p, Schedule: omp.Dynamic, Chunk: 1, LockOSThread: LockThreads})
	},
	"openmp-guided": func(p int) sched.Scheduler {
		return omp.New(omp.Config{Workers: p, Schedule: omp.Guided, Chunk: 1, LockOSThread: LockThreads})
	},
	"cilk": func(p int) sched.Scheduler {
		return cilk.New(cilk.Config{Workers: p, LockOSThread: LockThreads})
	},
	"hybrid": func(p int) sched.Scheduler {
		return hybrid.New(hybrid.Config{Workers: p, LockOSThread: LockThreads})
	},
}

// Names returns the registered scheduler names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewScheduler builds the named scheduler with p workers (p <= 0 selects
// GOMAXPROCS).
func NewScheduler(name string, p int) (sched.Scheduler, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown scheduler %q (known: %v)", name, Names())
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return f(p), nil
}

// Scenario is a named experiment. With full set it runs at the
// experiment's full-size defaults (zero options: each Run* picks its own
// sizes), as cmd/bench runs it; otherwise it runs small smoke-size options,
// as the test suite does. It writes its text report to w and returns the
// report value, the payload of the scenario's BENCH_<name>.json.
type Scenario func(w io.Writer, full bool) (any, error)

// scenario adapts a Run/Write pair and its smoke-size options to a Scenario.
func scenario[O, R any](quick O, run func(O) (R, error), write func(io.Writer, R) error) Scenario {
	return func(w io.Writer, full bool) (any, error) {
		var opt O
		if !full {
			opt = quick
		}
		rep, err := run(opt)
		if err != nil {
			return nil, err
		}
		return rep, write(w, rep)
	}
}

// elasticRigid pairs the elastic and rigid runs of a comparison scenario.
type elasticRigid[R any] struct {
	Elastic R `json:"elastic"`
	Rigid   R `json:"rigid"`
}

// elasticVsRigid adapts a RunXComparison/WriteX pair to a Scenario.
func elasticVsRigid[O, R any](quick O, run func(O) (R, R, error), write func(io.Writer, R, R) error) Scenario {
	return scenario(quick,
		func(opt O) (elasticRigid[R], error) {
			e, r, err := run(opt)
			return elasticRigid[R]{e, r}, err
		},
		func(w io.Writer, rep elasticRigid[R]) error { return write(w, rep.Elastic, rep.Rigid) })
}

// scenarios maps scenario names to their runs.
var scenarios = map[string]Scenario{
	"table1": scenario(BurdenOptions{Points: 6, Reps: 2, MaxTotal: 2 * time.Millisecond}, Table1, WriteTable1),
	"mpdata": scenario(MPDATAOptions{Steps: 3, Reps: 1, Rows: 20, Cols: 20, ThreadCounts: shortThreadCounts()},
		RunMPDATA, WriteMPDATA),
	"linreg": scenario(LinregOptions{Points: 1 << 16, Reps: 1, ThreadCounts: shortThreadCounts()}, RunLinreg,
		func(w io.Writer, res LinregResult) error { return WriteLinreg(w, res, "a") }),
	"ablation": func(w io.Writer, full bool) (any, error) {
		var opt AblationOptions
		if !full {
			opt = AblationOptions{LoopIters: 64, IterNs: 50, Loops: 20, Reps: 1, Fanouts: []int{2, 4}}
		}
		rows, err := RunAblation(opt)
		if err != nil {
			return nil, err
		}
		return rows, WriteAblation(w, rows, opt)
	},
	"multitenant": scenario(MultitenantOptions{Tenants: 8, JobsPerTenant: 10, Params: JobParams{N: 2048}},
		RunMultitenant, WriteMultitenant),
	"burst": elasticVsRigid(BurstOptions{Workers: 4, BigN: 4096, BurstJobs: 8, BurstN: 256, IterNs: 1500},
		RunBurstComparison, WriteBurst),
	"skew": elasticVsRigid(SkewOptions{Workers: 4, N: 4096, Jobs: 3, IterNs: 300},
		RunSkewComparison, WriteSkew),
	"shardburst": scenario(ShardBurstOptions{Workers: 4, Shards: 2, Tenants: 8, JobsPerTenant: 10, N: 256},
		RunShardBurstComparison, WriteShardBurst),
	"fairshare": scenario(FairShareOptions{Workers: 4, Duration: 250 * time.Millisecond, N: 1024},
		RunFairShareComparison, WriteFairShare),
	"overload": scenario(OverloadOptions{Workers: 4, Duration: 200 * time.Millisecond, N: 1024},
		RunOverload, WriteOverload),
	"traceoverhead": scenario(quickTraceOverheadOptions(), RunTraceOverhead, WriteTraceOverhead),
	"submitpath":    scenario(SubmitPathOptions{Workers: 2, Jobs: 2000, Warmup: 200}, RunSubmitPath, WriteSubmitPath),
	"pipeline": scenario(PipelineOptions{Workers: 4, Shards: 2, Chains: 4, Stages: 2, FanOut: 2, N: 1024, Rounds: 2},
		RunPipelineComparison, WritePipeline),
	"checkpoint": scenario(CheckpointOptions{Workers: 2, Jobs: 16, N: 1024, Reps: 1, PutRecords: 256},
		RunCheckpoint, WriteCheckpointBench),
}

// shortThreadCounts returns {1} on a single-processor machine and {1, 2}
// otherwise: the axis of a smoke-run scaling scenario.
func shortThreadCounts() []int {
	if runtime.GOMAXPROCS(0) < 2 {
		return []int{1}
	}
	return []int{1, 2}
}

// ScenarioNames returns the registered scenario names in sorted order.
func ScenarioNames() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunScenario runs the named scenario (at full size when full is set, else
// at smoke size), writing the text report to w and returning the report
// value.
func RunScenario(name string, w io.Writer, full bool) (any, error) {
	f, ok := scenarios[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	return f(w, full)
}

// WriteJSON writes v to path as indented JSON: the BENCH_*.json artifact
// format benchcmp compares.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Strict reports whether BENCH_STRICT=1 is set: the switch that turns the
// acceptance tests' bounds (and cmd/loadgen's strict gate) from skipped into
// asserted. The bounds need a quiet machine, so they are opt-in.
func Strict() bool { return os.Getenv("BENCH_STRICT") == "1" }

// Table1Schedulers returns the scheduler names of the rows of Table 1, in
// the paper's order.
func Table1Schedulers() []string {
	return []string{
		"fine-grain-tree",
		"fine-grain-centralized",
		"fine-grain-tree-full-barrier",
		"openmp-static",
		"openmp-dynamic",
		"cilk",
	}
}

// PaperBurdens maps Table 1 rows to the burdens (µs) measured in the paper
// on a 48-core Xeon E7-4860 v2, for side-by-side reporting.
var PaperBurdens = map[string]float64{
	"fine-grain-tree":              5.67,
	"fine-grain-centralized":       7.55,
	"fine-grain-tree-full-barrier": 12.00,
	"openmp-static":                8.12,
	"openmp-dynamic":               31.94,
	"cilk":                         68.80,
}

// DefaultThreadCounts returns the thread counts used by the scaling figures:
// 1, 2, 4, ... up to the machine size (and the paper's 48 if the machine is
// that large).
func DefaultThreadCounts(max int) []int {
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	out = append(out, max)
	return out
}
