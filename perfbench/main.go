// Command perfbench is the repository's closed-loop benchmark. It runs one
// workload per process over three layers of the stack — MPDATA time steps on
// the synchronous Pool (mpdata-sync), jobs through the Pool's async API
// (jobs-async) and POST /run requests to an in-process loopd server
// (loopd-http) — checks the outputs, and prints one JSON line:
//
//	perfbench --workload mpdata-sync --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// times calls into each layer from the benchmark's side and reports the
// per-layer metrics. --steady N runs each workload N times with seeds 1..N in
// child processes and prints every metric's median and quartile spread;
// --selftest shows that every output check rejects a corrupted output. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// logOut receives diagnostics; standard output carries only the result.
var logOut io.Writer = os.Stderr

// metric is a reported figure's name, unit and better direction.
type metric struct {
	name, unit, better string
}

var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer lists the traced run's metrics. A workload that bypasses a layer
// reports 0 for that layer's metrics; README.md names the workload that
// carries each.
var perLayer = []metric{
	{"core.for_us_p50", "us", "lower"},
	{"core.for_calls_per_step", "count", "lower"},
	{"core.empty_for_us_p50", "us", "lower"},
	{"mpdata.seq_step_us_p50", "us", "lower"},
	{"mpdata.master_us_per_step", "us", "lower"},
	{"mpdata.parallel_efficiency", "ratio", "higher"},
	{"mpdata.bytes_per_step", "bytes", "lower"},
	{"pool.idle_cores", "cores", "lower"},
	{"jobs.submit_us_p50", "us", "lower"},
	{"jobs.wait_us_p50", "us", "lower"},
	{"jobs.queue_us_p50", "us", "lower"},
	{"jobs.run_us_p50", "us", "lower"},
	{"jobs.workers_per_job", "count", "higher"},
	{"jobs.grown_per_kjob", "count", "lower"},
	{"jobs.peeled_per_kjob", "count", "lower"},
	{"loopd.serve_us_p50", "us", "lower"},
	{"loopd.job_us_p50", "us", "lower"},
	{"loopd.overhead_us_p50", "us", "lower"},
	{"loopd.tenant_served_ratio", "ratio", "higher"},
	{"client.overhead_us_p50", "us", "lower"},
	{"runtime.sched_latency_us_p50", "us", "lower"},
	{"runtime.mutex_wait_us_per_op", "us", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
}

// Probe settings.
const (
	setupReps = 40          // set-ups per run; setup_s is their median
	windows   = 10          // throughput and CPU windows per timed phase
	idleProbe = time.Second // idle sleep of the pool.idle_cores probe
)

type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func (o opts) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func (o opts) window() time.Duration { return o.duration() / windows }

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
	p99us             float64
}

// dist records the median of a traced distribution, in microseconds, as
// the metric name and returns it.
func (r *result) dist(name string, ds []time.Duration) float64 {
	v := p50us(ds)
	r.layer[name] = v
	return v
}

func (r *result) phase(ph timedPhase) {
	r.e2e["ops_per_s"] = ph.opsPerS
	r.e2e["latency_p50_us"] = pct(ph.lats, 0.50)
	r.e2e["latency_p90_us"] = pct(ph.lats, 0.90)
	r.e2e["cpu_us_per_op"] = ph.cpuUSPerOp
	r.p99us = pct(ph.lats, 0.99)
}

// workload is the program state of one workload, set up and ready to run.
type workload interface {
	// reference computes the expected outputs the checks compare against.
	reference(o opts) error
	// run measures o.seconds of closed-loop operations and checks them.
	run(o opts, res *result) error
	close()
}

// workloads builds each workload's program state: construction plus the
// lazy initialisation its first operation would otherwise pay.
var workloads = map[string]func(o opts) (workload, error){
	"mpdata-sync": func(o opts) (workload, error) { return newMPDATA(o.seed) },
	"jobs-async":  func(o opts) (workload, error) { return newJobs(o.seed, o.trace) },
	"loopd-http":  func(o opts) (workload, error) { return newLoopd(o.trace) },
}

func main() {
	var o opts
	var traceFlag int
	var probe, selftest bool
	var steady int
	flag.StringVar(&o.workload, "workload", "", "workload: mpdata-sync, jobs-async or loopd-http")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.BoolVar(&probe, "setup-probe", false, "set the workload up once, print the seconds it took and exit")
	flag.IntVar(&steady, "steady", 0, "run each workload (or --workload) N times and print medians and spreads")
	flag.BoolVar(&selftest, "selftest", false, "show that every output check rejects a corrupted output")
	flag.Parse()
	o.trace = traceFlag != 0

	switch {
	case selftest:
		lines, err := selfTest()
		for _, l := range lines {
			fmt.Println(l)
		}
		exitOn(err)
	case steady > 0:
		exitOn(steadiness(o, steady))
	case probe:
		d, err := setupOnce(o)
		exitOn(err)
		fmt.Println(d.Seconds())
	default:
		if _, ok := workloads[o.workload]; !ok {
			exitOn(fmt.Errorf("unknown workload %q", o.workload))
		}
		if o.seconds <= 0 {
			exitOn(fmt.Errorf("--seconds must be positive"))
		}
		exitOn(runWorkload(o))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(logOut, "perfbench:", err)
		os.Exit(1)
	}
}

// setupOnce sets the workload up, timing it, and tears it down again.
func setupOnce(o opts) (time.Duration, error) {
	start := time.Now()
	w, err := workloads[o.workload](o)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	w.close()
	return d, nil
}

// setupSeconds runs n set-ups, each in a fresh child process so that
// one-time initialisation inside the program is paid every time, and
// appends their times to ds.
func setupSeconds(o opts, n int, ds []float64) ([]float64, error) {
	for i := 0; i < n; i++ {
		out, err := self("--setup-probe", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
		if err != nil {
			return nil, err
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(lastLine(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// self runs this program with args, waits for it and returns its output.
func self(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = logOut
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	return out, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// output is the JSON line a run prints last.
type output struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// runWorkload is one benchmark run: set-up probes (untraced runs only), the
// run's own set-up, the reference outputs, the timed phase and its checks.
// Half the set-up probes run before the timed phase and half after it, with
// the workload closed, so that setup_s samples the machine at two times.
func runWorkload(o opts) error {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	var setups []float64
	var err error
	if !o.trace {
		if setups, err = setupSeconds(o, setupReps/2, setups); err != nil {
			return err
		}
	}
	w, err := workloads[o.workload](o)
	if err != nil {
		return err
	}
	if err := w.reference(o); err != nil {
		w.close()
		return err
	}
	runErr := w.run(o, res)
	w.close()
	res.e2e["rss_peak_mb"] = peakRSSMB()
	if !o.trace {
		if setups, err = setupSeconds(o, setupReps-setupReps/2, setups); err != nil {
			return err
		}
		res.e2e["setup_s"] = median(setups)
	}
	if runErr == nil && res.attempted == 0 {
		runErr = fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	if runErr != nil {
		fmt.Fprintln(logOut, "perfbench: check failed:", runErr)
	}
	fmt.Fprintf(logOut, "perfbench: %s seed=%d ops=%d failed=%d p99=%.1fus\n", o.workload, o.seed, res.attempted, res.failed, res.p99us)
	out := output{Correct: runErr == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]map[string]any{}}
	list, values := endToEnd, res.e2e
	if o.trace {
		list, values = perLayer, res.layer
	}
	for _, m := range list {
		out.Metrics[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return runErr
}

// steadiness runs each workload n times with seeds 1..n, each in its own
// process, and prints per metric the median and the distance between the
// quartiles as a share of the median.
func steadiness(o opts, n int) error {
	names := []string{o.workload}
	if o.workload == "" {
		names = []string{"mpdata-sync", "jobs-async", "loopd-http"}
	}
	for _, name := range names {
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			out, err := self("--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0")
			if err != nil {
				return err
			}
			var r struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lastLine(out)), &r); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: checks failed", name, seed)
			}
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Printf("%s: %d runs of %gs\n", name, n, o.seconds)
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, q3 := quartiles(values[k])
			med := median(append([]float64(nil), values[k]...))
			fmt.Printf("  %-16s median %12.4f  iqr/median %6.2f%%\n", k, med, 100*(q3-q1)/med)
		}
	}
	return nil
}
