package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one timed operation: when it ended, relative to the start of the
// timed phase, and how long it took.
type sample struct {
	end, lat time.Duration
}

// recorder collects the samples of one closed-loop client. Each client owns
// its recorder, so recording takes no lock.
type recorder struct {
	t0      time.Time
	samples []sample
}

func newRecorder(t0 time.Time, capHint int) *recorder {
	return &recorder{t0: t0, samples: make([]sample, 0, capHint)}
}

// add records an operation that started at start and has just ended.
func (r *recorder) add(start time.Time) {
	now := time.Now()
	r.samples = append(r.samples, sample{end: now.Sub(r.t0), lat: now.Sub(start)})
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuMark is a CPU-time reading taken at a point of the timed phase.
type cpuMark struct {
	at  time.Duration // since the start of the timed phase
	cpu time.Duration
}

// cpuSampler reads the process CPU time at the start of the timed phase, at
// each window boundary, and when stopped, from its own goroutine, so that no
// client pays for the readings.
type cpuSampler struct {
	t0    time.Time
	marks []cpuMark
	stop  chan struct{}
	done  sync.WaitGroup
}

func startCPUSampler(t0 time.Time, window time.Duration) *cpuSampler {
	s := &cpuSampler{t0: t0, stop: make(chan struct{})}
	s.marks = append(s.marks, cpuMark{0, cpuTime()})
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.marks = append(s.marks, cpuMark{time.Since(t0), cpuTime()})
			}
		}
	}()
	return s
}

// finish stops the sampler, takes a last reading and returns every reading.
func (s *cpuSampler) finish() []cpuMark {
	close(s.stop)
	s.done.Wait()
	return append(s.marks, cpuMark{time.Since(s.t0), cpuTime()})
}

// timedPhase summarises the samples of all clients of a timed phase.
type timedPhase struct {
	ops        int
	lats       []time.Duration // sorted
	opsPerS    float64         // median over the CPU sampler's windows
	cpuUSPerOp float64         // median over the same windows
}

// summarise merges the clients' samples and computes throughput and CPU per
// op in each window between consecutive CPU readings. The medians over the
// windows keep a short stall of the shared machine from moving the figure.
func summarise(recs []*recorder, marks []cpuMark) timedPhase {
	var all []sample
	for _, r := range recs {
		all = append(all, r.samples...)
	}
	ph := timedPhase{ops: len(all)}
	ph.lats = make([]time.Duration, len(all))
	ends := make([]time.Duration, len(all))
	for i, s := range all {
		ph.lats[i] = s.lat
		ends[i] = s.end
	}
	sort.Slice(ph.lats, func(i, j int) bool { return ph.lats[i] < ph.lats[j] })
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var rates, cpus []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		if b.at-a.at < (marks[1].at-marks[0].at)/2 {
			continue // a short tail window would only add noise
		}
		lo := sort.Search(len(ends), func(k int) bool { return ends[k] >= a.at })
		hi := sort.Search(len(ends), func(k int) bool { return ends[k] >= b.at })
		n := hi - lo
		if n == 0 {
			continue
		}
		rates = append(rates, float64(n)/(b.at-a.at).Seconds())
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/float64(n))
	}
	ph.opsPerS = median(rates)
	ph.cpuUSPerOp = median(cpus)
	return ph
}

// pct returns the q-quantile (0..1) of sorted durations in microseconds,
// by the nearest-rank rule.
func pct(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// p50us sorts ds and returns its median in microseconds.
func p50us(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return pct(ds, 0.5)
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method, the default of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Go runtime metrics read around the timed phase.
const (
	rmSchedLat  = "/sched/latencies:seconds"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
	rmAllocs    = "/gc/heap/allocs:bytes"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rmSchedLat}, {Name: rmMutexWait}, {Name: rmAllocs}, {Name: rmGCCycles}}
	metrics.Read(s)
	return s
}

// runtimeLayer returns the Go runtime's per-layer figures over the interval
// between two readRuntime calls that spanned ops operations.
func runtimeLayer(before, after []metrics.Sample, ops int) map[string]float64 {
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	hb, ha := before[0].Value.Float64Histogram(), after[0].Value.Float64Histogram()
	counts := make([]uint64, len(ha.Counts))
	var total uint64
	for i := range counts {
		counts[i] = ha.Counts[i] - hb.Counts[i]
		total += counts[i]
	}
	// The median scheduling latency, interpolated linearly inside the
	// histogram bucket that holds the middle sample.
	var sched float64
	var seen uint64
	for i, c := range counts {
		if total == 0 || c == 0 || 2*(seen+c) < total {
			seen += c
			continue
		}
		lo, hi := ha.Buckets[i], ha.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			sched = hi
		case math.IsInf(hi, 1):
			sched = lo
		default:
			sched = lo + (hi-lo)*(float64(total)/2-float64(seen))/float64(c)
		}
		sched *= 1e6
		break
	}
	return map[string]float64{
		"runtime.sched_latency_us_p50": sched,
		"runtime.mutex_wait_us_per_op": perOp((after[1].Value.Float64() - before[1].Value.Float64()) * 1e6),
		"runtime.alloc_bytes_per_op":   perOp(float64(after[2].Value.Uint64() - before[2].Value.Uint64())),
		"runtime.gc_cycles_per_kop":    perOp(float64(after[3].Value.Uint64()-before[3].Value.Uint64())) * 1e3,
	}
}

// addRuntime records the Go runtime's figures since before.
func (r *result) addRuntime(before []metrics.Sample, ops int) {
	for k, v := range runtimeLayer(before, readRuntime(), ops) {
		r.layer[k] = v
	}
}

// idleCores measures the CPU the process burns, in cores, while its caller
// sleeps for d with everything it set up still open.
func idleCores(d time.Duration) float64 {
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(d)
	return float64(cpuTime()-c0) / float64(time.Since(t0))
}
