// Package amdahl estimates scheduler burden the way the paper does: the
// measured speedup of a parallel loop with sequential time T on P workers is
// modelled as
//
//	S(T) = T / (d + T/P)
//
// where d is the work-distribution (scheduling) time — the "burden". Given a
// set of (T, S) measurements from a granularity sweep, Fit estimates d by
// least squares. The model is linear in disguise: T/S = d + T/P, so d is the
// intercept of a constrained linear regression of T/S against T with slope
// fixed at 1/P; we also expose the unconstrained fit, whose slope estimates
// the effective parallelism actually achieved.
package amdahl

import (
	"errors"
	"fmt"
	"math"
)

// Point is one measurement of the granularity sweep: sequential duration T
// of the loop body (seconds) and the speedup S observed when running it
// under the scheduler being characterised on P workers.
type Point struct {
	T float64 // sequential execution time, seconds
	S float64 // measured speedup (T / parallel time)
}

// Fit is the result of estimating the burden model from a sweep.
type Fit struct {
	// D is the estimated burden (work distribution time), in seconds: the
	// least-squares estimate of d in S = T/(d + T/P) with P fixed at the
	// worker count — the paper's model, fit the paper's way.
	D float64
	// DIntercept is the intercept of the unconstrained fit of T/S against T
	// (slope free). When the largest loops scale ideally it agrees with D;
	// when they do not (memory bandwidth, frequency scaling), it separates
	// the asymptotic-efficiency effect from the per-loop overhead, at the
	// cost of trading intercept against slope, so it is reported only as a
	// diagnostic.
	DIntercept float64
	// P is the worker count the model was fit for.
	P int
	// EffectiveP is the parallelism implied by the unconstrained fit
	// (1/slope); values well below P indicate the scheduler also limits
	// asymptotic scalability, not just small-loop latency.
	EffectiveP float64
	// R2 is the coefficient of determination of the unconstrained model on
	// the transformed data (T/S vs T).
	R2 float64
	// Residual is the root-mean-square error of predicted vs measured
	// speedup.
	Residual float64
}

// Model returns the speedup the fitted model predicts for a loop with
// sequential time t seconds.
func (f Fit) Model(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return t / (f.D + t/float64(f.P))
}

// BreakEven returns the sequential loop duration at which the fitted model
// predicts a speedup of 1 — i.e. the loop granularity below which parallel
// execution does not pay off. Returns +Inf if the scheduler never breaks
// even (P <= 1).
func (f Fit) BreakEven() float64 {
	if f.P <= 1 {
		return math.Inf(1)
	}
	// t/(d + t/P) = 1  =>  t (1 - 1/P) = d  =>  t = d·P/(P-1)
	return f.D * float64(f.P) / float64(f.P-1)
}

// String implements fmt.Stringer.
func (f Fit) String() string {
	return fmt.Sprintf("d=%.2fus effP=%.1f R2=%.3f", f.D*1e6, f.EffectiveP, f.R2)
}

// FitBurden estimates the burden d from sweep measurements for a machine
// with p workers. At least two points with positive T and S are required.
//
// The measurements are transformed to y = T/S (the parallel execution time,
// which the model predicts to equal d + T/P). The reported burden D
// minimises Σ (y_i − d − T_i/p)² with the slope pinned to 1/p, whose closed
// form is d = mean(y_i − T_i/p). Negative estimates are clamped to zero
// (they arise only from measurement noise or superlinear cache effects).
// DIntercept and EffectiveP come from the unconstrained line through (T, y)
// and diagnose how ideally the largest loops scale.
func FitBurden(points []Point, p int) (Fit, error) {
	if p <= 0 {
		return Fit{}, errors.New("amdahl: non-positive worker count")
	}
	var xs, ys []float64 // x = T, y = T/S
	for _, pt := range points {
		if pt.T <= 0 || pt.S <= 0 || math.IsNaN(pt.S) || math.IsInf(pt.S, 0) {
			continue
		}
		xs = append(xs, pt.T)
		ys = append(ys, pt.T/pt.S)
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("amdahl: need at least two valid measurements")
	}
	// Constrained fit: slope fixed at 1/p, intercept = mean residual.
	slope := 1 / float64(p)
	var sum float64
	for i := range xs {
		sum += ys[i] - slope*xs[i]
	}
	dc := sum / float64(len(xs))
	if dc < 0 {
		dc = 0
	}

	// Unconstrained fit, reported as a diagnostic: intercept and implied
	// asymptotic parallelism.
	di := dc
	effP := float64(p)
	if a, b, err := linearFit(xs, ys); err == nil && b > 0 {
		effP = 1 / b
		if a >= 0 {
			di = a
		} else {
			di = 0
		}
	}

	fit := Fit{D: dc, DIntercept: di, P: p, EffectiveP: effP}

	// Goodness of fit on the transformed data for the reported model
	// (intercept dc, slope 1/p).
	meanY := 0.0
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(len(ys))
	var ssRes, ssTot, ssSpeed float64
	for i := range xs {
		pred := dc + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
		predS := fit.Model(xs[i])
		measS := xs[i] / ys[i]
		ssSpeed += (predS - measS) * (predS - measS)
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	fit.Residual = math.Sqrt(ssSpeed / float64(len(xs)))
	return fit, nil
}

// linearFit fits y ≈ a + b·x by ordinary least squares. The package keeps
// its own fit so that it imports nothing beyond the standard library.
func linearFit(x, y []float64) (a, b float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, errors.New("amdahl: bad sample")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, errors.New("amdahl: degenerate x")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, nil
}
