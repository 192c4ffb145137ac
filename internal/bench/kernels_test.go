package bench

import (
	"math"
	"testing"

	"loopsched/internal/jobs"
	"loopsched/internal/linreg"
)

// runKernel submits the named kernel workload once and returns its result.
func runKernel(t *testing.T, s *jobs.Scheduler, name string, p JobParams) float64 {
	t.Helper()
	req, err := NewJobRequest(name, p)
	if err != nil {
		t.Fatalf("NewJobRequest(%q): %v", name, err)
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit %q: %v", name, err)
	}
	v, err := j.Wait()
	if err != nil {
		t.Fatalf("wait %q: %v", name, err)
	}
	return v
}

// TestKernelWorkloadsRegistered asserts the four numeric kernels are served
// workloads and produce finite, positive reductions under a real scheduler.
func TestKernelWorkloadsRegistered(t *testing.T) {
	names := JobWorkloads()
	for _, want := range []string{"mpdata", "linreg", "grid", "mapreduce"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("kernel workload %q not registered (have %v)", want, names)
		}
	}

	restore := LockThreads
	LockThreads = false
	defer func() { LockThreads = restore }()
	s := jobs.New(jobs.Config{Workers: 2, Name: "kernels"})
	defer s.Close()
	for _, name := range []string{"mpdata", "linreg", "grid", "mapreduce"} {
		v := runKernel(t, s, name, JobParams{N: 4096})
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s: result = %v, want a finite positive reduction", name, v)
		}
	}
}

// TestKernelWorkloadsDeterministic replays each kernel twice on one worker
// with a single chunk: identical inputs must reduce to the identical value.
func TestKernelWorkloadsDeterministic(t *testing.T) {
	restore := LockThreads
	LockThreads = false
	defer func() { LockThreads = restore }()
	s := jobs.New(jobs.Config{Workers: 1, Name: "kernels-det"})
	defer s.Close()
	const n = 2048
	p := JobParams{N: n, MaxWorkers: 1, Grain: n}
	for _, name := range []string{"mpdata", "linreg", "grid", "mapreduce"} {
		a := runKernel(t, s, name, p)
		b := runKernel(t, s, name, p)
		if a != b {
			t.Errorf("%s: two single-worker runs differ: %v vs %v", name, a, b)
		}
	}
}

// TestMapreduceClosedForm pins the mapreduce workload to its closed form:
// every input byte contributes its bucket index plus one, and all partial
// sums are integer-valued, so the commutative fold is exact in float64.
func TestMapreduceClosedForm(t *testing.T) {
	restore := LockThreads
	LockThreads = false
	defer func() { LockThreads = restore }()
	ks := kernelInput()
	const n = 10000
	var want float64
	for i := 0; i < n; i++ {
		want += float64(int(ks.histData[i%len(ks.histData)])&(histKeys-1) + 1)
	}
	s := jobs.New(jobs.Config{Workers: 4, Name: "kernels-mr"})
	defer s.Close()
	if got := runKernel(t, s, "mapreduce", JobParams{N: n}); got != want {
		t.Errorf("mapreduce over %d inputs = %v, want %v", n, got, want)
	}
}

// TestLinregClosedForm checks the linreg workload against a sequential fold
// over the same virtual range (all statistics are integer-valued, so the
// parallel commutative fold is exact).
func TestLinregClosedForm(t *testing.T) {
	restore := LockThreads
	LockThreads = false
	defer func() { LockThreads = restore }()
	const n = 3000
	want := referenceKernels["linreg"](kernelInput(), 0, n, 0)
	s := jobs.New(jobs.Config{Workers: 4, Name: "kernels-lr"})
	defer s.Close()
	if got := runKernel(t, s, "linreg", JobParams{N: n}); got != want {
		t.Errorf("linreg over %d points = %v, want %v", n, got, want)
	}
}

// referenceKernels are the served kernel bodies as first written — the
// branching mpdata and grid gathers, the float-accumulating linreg map and
// the per-item float histogram — kept to pin the served bodies bit for bit.
// Each folds the virtual range [lo, hi) into acc exactly as the RBody of
// its workload did.
var referenceKernels = map[string]func(ks *kernelState, lo, hi int, acc float64) float64{
	"mpdata": func(ks *kernelState, lo, hi int, acc float64) float64 {
		g, psi, vn := ks.g, ks.psi, ks.vn
		edges := g.NumEdges()
		for i := lo; i < hi; i++ {
			e := i % edges
			v := vn[e]
			var flux float64
			if v >= 0 {
				flux = v * psi[g.EdgeFrom[e]]
			} else {
				flux = v * psi[g.EdgeTo[e]]
			}
			if flux < 0 {
				flux = -flux
			}
			acc += flux
		}
		return acc
	},
	"grid": func(ks *kernelState, lo, hi int, acc float64) float64 {
		g, psi, vn := ks.g, ks.psi, ks.vn
		points := g.NumPoints
		for i := lo; i < hi; i++ {
			pt := i % points
			div := 0.0
			for _, ei := range g.IncidentEdges[g.IncidentStart[pt]:g.IncidentStart[pt+1]] {
				v := vn[ei]
				var flux float64
				if v >= 0 {
					flux = v * psi[g.EdgeFrom[ei]]
				} else {
					flux = v * psi[g.EdgeTo[ei]]
				}
				if int(g.EdgeFrom[ei]) == pt {
					div += flux
				} else {
					div -= flux
				}
			}
			acc += div * div / g.Area[pt]
		}
		return acc
	},
	"linreg": func(ks *kernelState, lo, hi int, acc float64) float64 {
		pts := ks.pts.Points
		var emit [6]float64
		for lo < hi {
			b := lo % len(pts)
			e := min(b+(hi-lo), len(pts))
			emit = addReferenceStats(emit, pts, b, e)
			lo += e - b
		}
		for _, v := range emit {
			acc += v
		}
		return acc
	},
	"mapreduce": func(ks *kernelState, lo, hi int, acc float64) float64 {
		data := ks.histData
		emit := make([]float64, histKeys)
		for i := lo; i < hi; i++ {
			emit[int(data[i%len(data)])&(histKeys-1)]++
		}
		for k, v := range emit {
			acc += float64(k+1) * v
		}
		return acc
	},
}

// addReferenceStats is the linreg map as first written: float statistics
// over points [begin, end), added into emit in the order Σx, Σy, Σxx, Σyy,
// Σxy, n.
func addReferenceStats(emit [6]float64, pts []linreg.Point, begin, end int) [6]float64 {
	var sx, sy, sxx, syy, sxy, n float64
	for i := begin; i < end; i++ {
		x := float64(pts[i].X)
		y := float64(pts[i].Y)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
		n++
	}
	return [6]float64{emit[0] + sx, emit[1] + sy, emit[2] + sxx, emit[3] + syy, emit[4] + sxy, emit[5] + n}
}

// servedBody returns the RBody the named kernel workload serves.
func servedBody(tb testing.TB, name string) func(w, lo, hi int, acc float64) float64 {
	tb.Helper()
	req, err := NewJobRequest(name, JobParams{N: 1})
	if err != nil {
		tb.Fatalf("NewJobRequest(%q): %v", name, err)
	}
	return req.RBody
}

// naturalSize is the length of a kernel's input: its iteration space wraps
// modulo this.
func naturalSize(ks *kernelState, name string) int {
	switch name {
	case "mpdata":
		return ks.g.NumEdges()
	case "grid":
		return ks.g.NumPoints
	case "linreg":
		return len(ks.pts.Points)
	default:
		return len(ks.histData)
	}
}

// checkBitwise compares one served fold against the reference fold.
func checkBitwise(t *testing.T, ks *kernelState, name string, lo, hi int, acc float64) {
	t.Helper()
	got := servedBody(t, name)(0, lo, hi, acc)
	want := referenceKernels[name](ks, lo, hi, acc)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s [%d, %d) from %v = %v (%#x), reference %v (%#x)",
			name, lo, hi, acc, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestServedKernelsMatchReferenceBitwise pins every served kernel body to
// its reference bit for bit, on natural, partial, offset and wrapped
// ranges, from a zero and a non-zero accumulator.
func TestServedKernelsMatchReferenceBitwise(t *testing.T) {
	ks := kernelInput()
	for _, name := range []string{"mpdata", "grid", "linreg", "mapreduce"} {
		n := naturalSize(ks, name)
		ranges := [][2]int{
			{0, n},                      // natural
			{0, n / 3},                  // partial
			{n/3 + 7, n - 5},            // offset
			{n - 100, 2*n + 300},        // wrapped past the natural size
			{3*n + 11, 3*n + 11 + 4097}, // offset past the natural size
			{5, 5},                      // empty
		}
		for _, r := range ranges {
			for _, acc := range []float64{0, 12345.678} {
				checkBitwise(t, ks, name, r[0], r[1], acc)
			}
		}
	}
}

// FuzzServedKernels checks the served bodies against the references on
// arbitrary (kernel, lo, length) ranges.
func FuzzServedKernels(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint16(16399))
	f.Add(uint8(1), uint32(5000), uint16(1200))
	f.Add(uint8(2), uint32(1<<18-3), uint16(9))
	f.Add(uint8(3), uint32(1<<20-1), uint16(2))
	names := []string{"mpdata", "grid", "linreg", "mapreduce"}
	ks := kernelInput()
	f.Fuzz(func(t *testing.T, kernel uint8, lo uint32, length uint16) {
		name := names[int(kernel)%len(names)]
		checkBitwise(t, ks, name, int(lo), int(lo)+int(length), float64(kernel))
	})
}

// servedSink keeps BenchmarkServedKernels' results live.
var servedSink float64

// BenchmarkServedKernels times one sequential sweep of each served kernel
// at the size perfbench's loopd-http workload requests it.
func BenchmarkServedKernels(b *testing.B) {
	kernelInput()
	for _, k := range []struct {
		name string
		n    int
	}{{"mpdata", 16399}, {"grid", 5568}, {"linreg", 1 << 15}, {"mapreduce", 1 << 16}} {
		b.Run(k.name, func(b *testing.B) {
			body := servedBody(b, k.name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				servedSink += body(0, 0, k.n, 0)
			}
		})
	}
}
