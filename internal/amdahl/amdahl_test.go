package amdahl

import (
	"math"
	"testing"
	"testing/quick"
)

// synth generates noiseless measurements from the model itself.
func synth(d float64, p int, ts []float64) []Point {
	pts := make([]Point, len(ts))
	for i, t := range ts {
		pts[i] = Point{T: t, S: t / (d + t/float64(p))}
	}
	return pts
}

func sweepTimes() []float64 {
	// 1 µs .. 10 ms, geometric.
	var ts []float64
	for t := 1e-6; t <= 1e-2; t *= 2 {
		ts = append(ts, t)
	}
	return ts
}

func TestFitRecoversKnownBurden(t *testing.T) {
	for _, d := range []float64{1e-6, 5.67e-6, 31.94e-6, 68.8e-6} {
		for _, p := range []int{8, 24, 48} {
			fit, err := FitBurden(synth(d, p, sweepTimes()), p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fit.D-d) > 0.02*d+1e-9 {
				t.Errorf("p=%d d=%v: recovered %v", p, d, fit.D)
			}
			if fit.R2 < 0.999 {
				t.Errorf("p=%d d=%v: R2 = %v", p, d, fit.R2)
			}
		}
	}
}

func TestFitOrderingMatchesTable1(t *testing.T) {
	// Synthetic data in the paper's Table 1 proportions must preserve the
	// ordering of the recovered burdens.
	p := 48
	burdens := map[string]float64{
		"fine-grain-tree": 5.67e-6,
		"openmp-static":   8.12e-6,
		"openmp-dynamic":  31.94e-6,
		"cilk":            68.80e-6,
	}
	fits := map[string]float64{}
	for name, d := range burdens {
		fit, err := FitBurden(synth(d, p, sweepTimes()), p)
		if err != nil {
			t.Fatal(err)
		}
		fits[name] = fit.D
	}
	if !(fits["fine-grain-tree"] < fits["openmp-static"] &&
		fits["openmp-static"] < fits["openmp-dynamic"] &&
		fits["openmp-dynamic"] < fits["cilk"]) {
		t.Errorf("ordering not preserved: %v", fits)
	}
	ratio := fits["cilk"] / fits["fine-grain-tree"]
	if math.Abs(ratio-12.13) > 0.5 {
		t.Errorf("cilk/fine-grain ratio = %.2f, want ~12.1", ratio)
	}
}

func TestModelAndBreakEven(t *testing.T) {
	fit := Fit{D: 10e-6, P: 48}
	if s := fit.Model(0); s != 0 {
		t.Errorf("Model(0) = %v", s)
	}
	// Very coarse loops approach the ideal speedup P.
	if s := fit.Model(10); s < 47 {
		t.Errorf("Model(10s) = %v, want close to 48", s)
	}
	be := fit.BreakEven()
	// At the break-even granularity speedup is 1 by definition.
	if math.Abs(fit.Model(be)-1) > 1e-9 {
		t.Errorf("Model(BreakEven) = %v", fit.Model(be))
	}
	if !math.IsInf((Fit{D: 1e-6, P: 1}).BreakEven(), 1) {
		t.Errorf("single worker should never break even")
	}
	if (Fit{D: 3e-6, P: 48}).String() == "" {
		t.Errorf("String is empty")
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := FitBurden(nil, 48); err == nil {
		t.Errorf("accepted empty input")
	}
	if _, err := FitBurden(synth(1e-6, 48, sweepTimes()), 0); err == nil {
		t.Errorf("accepted p=0")
	}
	// Points with non-positive T or S are skipped.
	pts := []Point{{T: -1, S: 2}, {T: 1e-3, S: 0}, {T: 1e-3, S: math.NaN()}}
	if _, err := FitBurden(pts, 48); err == nil {
		t.Errorf("accepted a sweep with no valid points")
	}
}

func TestInterceptDiagnosticsOnIdealData(t *testing.T) {
	// On data generated exactly from the model, the unconstrained intercept
	// and effective parallelism must agree with the constrained estimate and
	// the true P.
	d, p := 12e-6, 24
	fit, err := FitBurden(synth(d, p, sweepTimes()), p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.DIntercept-d) > 0.05*d {
		t.Errorf("DIntercept = %v, want ~%v", fit.DIntercept, d)
	}
	if math.Abs(fit.EffectiveP-float64(p)) > 0.5 {
		t.Errorf("EffectiveP = %v, want ~%d", fit.EffectiveP, p)
	}
}

func TestInterceptSeparatesScalingLoss(t *testing.T) {
	// Data whose asymptotic parallelism is only 20 on a 24-worker model:
	// the constrained estimate absorbs the scaling loss (grows with the
	// largest T), while the unconstrained intercept stays near the true
	// per-loop overhead.
	d, pReal, pModel := 10e-6, 20, 24
	pts := synth(d, pReal, sweepTimes())
	fit, err := FitBurden(pts, pModel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.DIntercept-d) > 0.1*d {
		t.Errorf("DIntercept = %v, want ~%v", fit.DIntercept, d)
	}
	if fit.D <= fit.DIntercept {
		t.Errorf("constrained estimate %v should exceed the intercept %v when scaling is imperfect", fit.D, fit.DIntercept)
	}
	if math.Abs(fit.EffectiveP-float64(pReal)) > 1 {
		t.Errorf("EffectiveP = %v, want ~%d", fit.EffectiveP, pReal)
	}
}

func TestNegativeBurdenClampedToZero(t *testing.T) {
	// Measurements better than the ideal model (superlinear, e.g. cache
	// effects) would give a negative burden; the estimator clamps to 0.
	p := 8
	pts := []Point{{T: 1e-3, S: 8.5}, {T: 2e-3, S: 8.4}, {T: 4e-3, S: 8.6}}
	fit, err := FitBurden(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if fit.D != 0 {
		t.Errorf("burden = %v, want clamp to 0", fit.D)
	}
}

func TestPropertyRecoverRandomBurden(t *testing.T) {
	f := func(dMicro uint16, pRaw uint8) bool {
		d := (float64(dMicro%200) + 1) * 1e-6
		p := int(pRaw%63) + 2
		fit, err := FitBurden(synth(d, p, sweepTimes()), p)
		if err != nil {
			return false
		}
		return math.Abs(fit.D-d) <= 0.05*d+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 2.5 + 1.5*x[i]
	}
	a, b, err := linearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2.5) > 1e-9 || math.Abs(b-1.5) > 1e-9 {
		t.Errorf("fit = %v %v", a, b)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := linearFit([]float64{1}, []float64{1}); err == nil {
		t.Errorf("accepted a single point")
	}
	if _, _, err := linearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Errorf("accepted mismatched lengths")
	}
	if _, _, err := linearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Errorf("accepted degenerate x")
	}
}

func TestPropertyLinearFitRecoversLine(t *testing.T) {
	f := func(aRaw, bRaw int8, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		a := float64(aRaw) / 4
		b := float64(bRaw) / 8
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
			y[i] = a + b*x[i]
		}
		ga, gb, err := linearFit(x, y)
		return err == nil && math.Abs(ga-a) < 1e-6 && math.Abs(gb-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
