// Package linreg implements the Phoenix++ linear_regression workload used
// in Figure 3 of the paper: a single pass over a large array of (x, y)
// byte pairs accumulating the statistics Σx, Σy, Σxx, Σyy, Σxy and the point
// count, from which the least-squares line is computed. As in Phoenix++,
// the map keeps the statistics of a chunk as integers (the coordinates are
// bytes), which yields exactly the float sums at integer-add cost; see Sum.
// The entire workload is one big reduction, so its parallel efficiency is
// governed by the runtime's reduction implementation — per-worker views
// merged in the join half-barrier (fine-grain), an extra reduction barrier
// (OpenMP) or per-task lazily allocated views (Cilk).
package linreg

import (
	"errors"
	"math"

	"loopsched/internal/phoenix"
	"loopsched/internal/sched"
)

// Point is one sample: Phoenix++ stores the medium input as byte-valued
// coordinates (two bytes per point, ~50 MB for ~26 M points).
type Point struct {
	X, Y uint8
}

// Dataset is the input array.
type Dataset struct {
	Points []Point
}

// Indices of the accumulated statistics in the reduction vector.
const (
	idxSX = iota
	idxSY
	idxSXX
	idxSYY
	idxSXY
	idxN
	numStats
)

// Stats are the accumulated sums of the regression.
type Stats struct {
	SX, SY, SXX, SYY, SXY float64
	N                     float64
}

// Result is the fitted line and correlation.
type Result struct {
	Slope, Intercept, R2 float64
}

// PaperMediumPoints approximates the Phoenix++ "medium" input size for
// linear_regression (a ~50 MB file of 2-byte points).
const PaperMediumPoints = 25 * 1024 * 1024

// Generate builds a synthetic dataset of n points around the line
// y = 0.25·x + 30 with deterministic pseudo-noise, clamped to byte range —
// the same statistical shape as the Phoenix++ key files.
func Generate(n int) Dataset {
	pts := make([]Point, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range pts {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x := uint8(state)
		noise := int(int8(uint8(state >> 8)))
		y := int(float64(x)*0.25) + 30 + noise/16
		if y < 0 {
			y = 0
		}
		if y > 255 {
			y = 255
		}
		pts[i] = Point{X: x, Y: uint8(y)}
	}
	return Dataset{Points: pts}
}

// Job returns the Phoenix-style array job for the dataset. Its map folds
// each chunk with Sum.
func (d Dataset) Job() phoenix.ArrayJob {
	return phoenix.ArrayJob{
		NumKeys: numStats,
		Map: func(w, begin, end int, emit []float64) {
			s := d.Sum(begin, end)
			emit[idxSX] += s.SX
			emit[idxSY] += s.SY
			emit[idxSXX] += s.SXX
			emit[idxSYY] += s.SYY
			emit[idxSXY] += s.SXY
			emit[idxN] += s.N
		},
	}
}

// Sum returns the statistics of points [begin, end). Like Phoenix++'s own
// linear_regression it keeps them as integers: the coordinates are bytes,
// so each sum is an integer, and below 2^37 points every partial sum stays
// under 2^53. The float64 results are therefore exactly those of a float
// accumulation, at integer-add cost.
func (d Dataset) Sum(begin, end int) Stats {
	var sx, sy, sxx, syy, sxy uint64
	for _, p := range d.Points[begin:end] {
		x, y := uint64(p.X), uint64(p.Y)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	return Stats{
		SX: float64(sx), SY: float64(sy),
		SXX: float64(sxx), SYY: float64(syy), SXY: float64(sxy),
		N: float64(end - begin),
	}
}

// Run computes the regression statistics over the dataset using the given
// scheduler (a single reducing parallel loop).
func (d Dataset) Run(s sched.Scheduler) (Stats, error) {
	if len(d.Points) == 0 {
		return Stats{}, errors.New("linreg: empty dataset")
	}
	vec, err := d.Job().Run(s, len(d.Points))
	if err != nil {
		return Stats{}, err
	}
	return statsFromVec(vec), nil
}

// RunChunked computes the same statistics but issues the reduction as many
// smaller loops of chunk points each (the fine-grain variant the paper uses
// to stress scheduling overhead: the total work is identical, the number of
// scheduled loops grows as the chunk shrinks).
func (d Dataset) RunChunked(s sched.Scheduler, chunk int) (Stats, error) {
	if len(d.Points) == 0 {
		return Stats{}, errors.New("linreg: empty dataset")
	}
	if chunk <= 0 || chunk >= len(d.Points) {
		return d.Run(s)
	}
	job := d.Job()
	var total Stats
	for begin := 0; begin < len(d.Points); begin += chunk {
		end := begin + chunk
		if end > len(d.Points) {
			end = len(d.Points)
		}
		sub := phoenix.ArrayJob{
			NumKeys: numStats,
			Map: func(w, b, e int, emit []float64) {
				job.Map(w, begin+b, begin+e, emit)
			},
		}
		vec, err := sub.Run(s, end-begin)
		if err != nil {
			return Stats{}, err
		}
		total = total.Add(statsFromVec(vec))
	}
	return total, nil
}

// Sequential computes the statistics on the calling goroutine; it is the
// speedup baseline and the correctness oracle.
func (d Dataset) Sequential() Stats {
	return d.Sum(0, len(d.Points))
}

func statsFromVec(v []float64) Stats {
	return Stats{SX: v[idxSX], SY: v[idxSY], SXX: v[idxSXX], SYY: v[idxSYY], SXY: v[idxSXY], N: v[idxN]}
}

// Add combines two partial statistics.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SX: s.SX + o.SX, SY: s.SY + o.SY,
		SXX: s.SXX + o.SXX, SYY: s.SYY + o.SYY, SXY: s.SXY + o.SXY,
		N: s.N + o.N,
	}
}

// Solve returns the least-squares line and R² for the accumulated
// statistics.
func (s Stats) Solve() (Result, error) {
	if s.N < 2 {
		return Result{}, errors.New("linreg: need at least two points")
	}
	den := s.N*s.SXX - s.SX*s.SX
	if den == 0 {
		return Result{}, errors.New("linreg: degenerate x values")
	}
	slope := (s.N*s.SXY - s.SX*s.SY) / den
	intercept := (s.SY - slope*s.SX) / s.N
	// R² from the correlation coefficient.
	denY := s.N*s.SYY - s.SY*s.SY
	r2 := 1.0
	if denY > 0 {
		r := (s.N*s.SXY - s.SX*s.SY) / math.Sqrt(den*denY)
		r2 = r * r
	}
	return Result{Slope: slope, Intercept: intercept, R2: r2}, nil
}
