package linreg

import (
	"math"
	"runtime"
	"testing"

	"loopsched/internal/cilk"
	"loopsched/internal/core"
	"loopsched/internal/omp"
	"loopsched/internal/phoenix"
	"loopsched/internal/sched"
)

func TestGenerateIsDeterministicAndLinear(t *testing.T) {
	a := Generate(10000)
	b := Generate(10000)
	if len(a.Points) != 10000 {
		t.Fatalf("generated %d points", len(a.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("generation is not deterministic at %d", i)
		}
	}
	st := a.Sequential()
	res, err := st.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// The generator draws around y = 0.25x + 30 with small noise.
	if math.Abs(res.Slope-0.25) > 0.05 {
		t.Errorf("slope = %v, want ~0.25", res.Slope)
	}
	if math.Abs(res.Intercept-30) > 5 {
		t.Errorf("intercept = %v, want ~30", res.Intercept)
	}
	if res.R2 < 0.8 {
		t.Errorf("R2 = %v", res.R2)
	}
}

func TestStatsAddAndSolveErrors(t *testing.T) {
	s := Stats{SX: 1, SY: 2, SXX: 3, SYY: 4, SXY: 5, N: 6}
	sum := s.Add(s)
	if sum.N != 12 || sum.SXY != 10 {
		t.Errorf("Add = %+v", sum)
	}
	if _, err := (Stats{N: 1}).Solve(); err == nil {
		t.Errorf("accepted N=1")
	}
	if _, err := (Stats{N: 3, SX: 3, SXX: 3}).Solve(); err == nil {
		t.Errorf("accepted degenerate x (all equal)")
	}
}

func TestParallelRuntimesMatchSequential(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	data := Generate(200000)
	want := data.Sequential()

	runtimes := []sched.Scheduler{
		core.New(core.Config{Workers: p, LockOSThread: false}),
		core.New(core.Config{Workers: p, Mode: core.ModeFull, LockOSThread: false}),
		omp.New(omp.Config{Workers: p, Schedule: omp.Static, LockOSThread: false}),
		cilk.New(cilk.Config{Workers: p, LockOSThread: false}),
	}
	for _, rt := range runtimes {
		got, err := data.Run(rt)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, g, w float64) {
			tol := 1e-9 * (1 + math.Abs(w))
			if math.Abs(g-w) > tol {
				t.Errorf("%s: %s = %v, want %v", rt.Name(), name, g, w)
			}
		}
		check("N", got.N, want.N)
		check("SX", got.SX, want.SX)
		check("SY", got.SY, want.SY)
		check("SXX", got.SXX, want.SXX)
		check("SYY", got.SYY, want.SYY)
		check("SXY", got.SXY, want.SXY)
		rt.Close()
	}
}

func TestRunChunkedMatchesRun(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	data := Generate(100000)
	s := core.New(core.Config{Workers: p, LockOSThread: false})
	defer s.Close()
	whole, err := data.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := data.RunChunked(s, 7777)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole.SXY-chunked.SXY) > 1e-6*math.Abs(whole.SXY) || whole.N != chunked.N {
		t.Errorf("chunked stats differ: %+v vs %+v", whole, chunked)
	}
	// Chunk larger than the dataset falls back to a single loop.
	big, err := data.RunChunked(s, len(data.Points)+5)
	if err != nil || big.N != whole.N {
		t.Errorf("oversized chunk: %+v %v", big, err)
	}
}

func TestEmptyDatasetErrors(t *testing.T) {
	var d Dataset
	s := sched.NewSequential()
	if _, err := d.Run(s); err == nil {
		t.Errorf("accepted an empty dataset")
	}
	if _, err := d.RunChunked(s, 10); err == nil {
		t.Errorf("accepted an empty dataset (chunked)")
	}
}

func TestSolveKnownLine(t *testing.T) {
	// Exact points on y = 2x + 1.
	var st Stats
	for x := 0; x < 10; x++ {
		y := 2*float64(x) + 1
		st.SX += float64(x)
		st.SY += y
		st.SXX += float64(x) * float64(x)
		st.SYY += y * y
		st.SXY += float64(x) * y
		st.N++
	}
	res, err := st.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Slope-2) > 1e-9 || math.Abs(res.Intercept-1) > 1e-9 || math.Abs(res.R2-1) > 1e-9 {
		t.Errorf("Solve = %+v", res)
	}
}

// referenceJob is the dataset's array job as first written, with the six
// statistics accumulated in float64.
func referenceJob(d Dataset) phoenix.ArrayJob {
	pts := d.Points
	return phoenix.ArrayJob{
		NumKeys: numStats,
		Map: func(w, begin, end int, emit []float64) {
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
			emit[idxSX] += sx
			emit[idxSY] += sy
			emit[idxSXX] += sxx
			emit[idxSYY] += syy
			emit[idxSXY] += sxy
			emit[idxN] += n
		},
	}
}

// referenceRun is RunChunked (chunk <= 0: Run) over referenceJob.
func referenceRun(t *testing.T, d Dataset, s sched.Scheduler, chunk int) Stats {
	t.Helper()
	if chunk <= 0 {
		chunk = len(d.Points)
	}
	job := referenceJob(d)
	var total Stats
	for begin := 0; begin < len(d.Points); begin += chunk {
		end := min(begin+chunk, len(d.Points))
		sub := phoenix.ArrayJob{
			NumKeys: numStats,
			Map: func(w, b, e int, emit []float64) {
				job.Map(w, begin+b, begin+e, emit)
			},
		}
		vec, err := sub.Run(s, end-begin)
		if err != nil {
			t.Fatal(err)
		}
		total = total.Add(statsFromVec(vec))
	}
	return total
}

// TestIntegerStatsMatchFloatReferenceBitwise pins Run, RunChunked and
// Sequential to the float-accumulating map bit for bit: every partial sum
// is an integer below 2^53, so integer accumulation changes no result.
func TestIntegerStatsMatchFloatReferenceBitwise(t *testing.T) {
	data := Generate(100003)
	same := func(name string, got, want Stats) {
		t.Helper()
		g := []float64{got.SX, got.SY, got.SXX, got.SYY, got.SXY, got.N}
		w := []float64{want.SX, want.SY, want.SXX, want.SYY, want.SXY, want.N}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: statistic %d = %v, reference %v", name, i, g[i], w[i])
			}
		}
	}
	same("Sequential", data.Sequential(), referenceRun(t, data, sched.NewSequential(), 0))
	for _, rt := range []sched.Scheduler{
		sched.NewSequential(),
		core.New(core.Config{Workers: 2, LockOSThread: false}),
	} {
		got, err := data.Run(rt)
		if err != nil {
			t.Fatal(err)
		}
		same(rt.Name()+" Run", got, referenceRun(t, data, rt, 0))
		got, err = data.RunChunked(rt, 7777)
		if err != nil {
			t.Fatal(err)
		}
		same(rt.Name()+" RunChunked", got, referenceRun(t, data, rt, 7777))
		rt.Close()
	}
}
