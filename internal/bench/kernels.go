package bench

// kernels.go promotes the seed's numeric kernels — the workloads the paper's
// fine-grain loop scheduling was designed for — to first-class served job
// workloads, so cmd/loopd and the trace-driven load generator exercise real
// memory-bound and reduction-heavy loops, not just calibrated spins:
//
//   - mpdata:    the MPDATA donor-cell edge loop (Figure 2): an upwind flux
//                computation per edge of the paper-sized unstructured grid —
//                one gather of the field per edge, its donor picked without
//                a branch;
//   - grid:      the MPDATA point loop: a CSR divergence gather over each
//                point's incident edges — irregular, variable-degree,
//                memory-bound;
//   - linreg:    the Phoenix++ linear_regression map phase (Figure 3): a
//                streaming 6-statistic reduction over byte-valued points;
//   - mapreduce: a Phoenix++ array-container histogram: byte inputs binned
//                into a dense key space with a sum combiner.
//
// Each workload runs over shared immutable state built once on first
// request from the real kernel packages (internal/mpdata, internal/grid,
// internal/linreg). The request's N indexes the kernel's iteration space
// modulo its natural size, so any n works and repeated jobs re-walk the same
// arrays (a served kernel is cache-warm, like a resident model); a body
// walks its range as contiguous segments of the natural input. All four are
// commutative scalar reductions, so they exercise the elastic arrival-order
// fold path and /run reports a meaningful result.
//
// The bodies are lean so that what a request measures is the gathers, not
// bookkeeping: one sequential sweep at perfbench's loopd-http sizes costs
// about 41 µs (mpdata), 113 µs (grid), 74 µs (linreg) and 57 µs
// (mapreduce) on one core of a 2-vCPU Xeon (Go 1.24; medians of
// BenchmarkServedKernels), against 87, 181, 110 and 94 µs for the plain
// branching reference bodies in kernels_test.go, which
// TestServedKernelsMatchReferenceBitwise holds every result equal to bit for
// bit. The only tables are per-CSR-slot facts of the grid and the fixed
// velocity field; nothing derived from the field psi is tabulated, and
// nothing is kept between requests.

import (
	"fmt"
	"math"
	"sync"

	"loopsched/internal/grid"
	"loopsched/internal/jobs"
	"loopsched/internal/linreg"
	"loopsched/internal/mpdata"
	"loopsched/internal/sched"
)

// kernelState is the shared immutable input of the kernel workloads, built
// once on first use (loopd startup and spin-only traffic never pay for it).
type kernelState struct {
	g   *grid.Grid
	psi []float64 // advected field after a few developed MPDATA steps
	vn  []float64 // prescribed edge velocities (uniform wind · edge normal)

	// For each CSR slot k of g.IncidentEdges, belonging to point p: nbr[k]
	// is the edge's other endpoint and sv[k] its velocity signed outward
	// from p (+vn when p is the edge's EdgeFrom end, -vn otherwise).
	nbr []int32
	sv  []float64

	pts linreg.Dataset

	histData []byte
}

const (
	// linregPoints is the served dataset size (~512 KiB of 2-byte points):
	// large enough to stream through cache levels, small enough for CI.
	linregPoints = 1 << 18
	// histBytes is the histogram input size; histKeys its dense key space.
	histBytes = 1 << 20
	histKeys  = 64
)

var (
	kernelOnce sync.Once
	kernels    kernelState
)

func kernelInput() *kernelState {
	kernelOnce.Do(func() {
		g, err := grid.NewPaperGrid()
		if err != nil {
			panic(fmt.Sprintf("bench: paper grid: %v", err))
		}
		kernels.g = g
		// A uniform wind dotted with each edge's scaled normal gives the
		// donor-cell pass deterministic, physically shaped velocities from
		// exported geometry alone.
		kernels.vn = make([]float64, g.NumEdges())
		for e := range kernels.vn {
			kernels.vn[e] = 0.8*g.EdgeNX[e] + 0.6*g.EdgeNY[e]
		}
		kernels.nbr = make([]int32, len(g.IncidentEdges))
		kernels.sv = make([]float64, len(g.IncidentEdges))
		for p := 0; p < g.NumPoints; p++ {
			for k := g.IncidentStart[p]; k < g.IncidentStart[p+1]; k++ {
				ei := g.IncidentEdges[k]
				kernels.nbr[k], kernels.sv[k] = g.EdgeTo[ei], kernels.vn[ei]
				if int(g.EdgeTo[ei]) == p {
					kernels.nbr[k], kernels.sv[k] = g.EdgeFrom[ei], -kernels.vn[ei]
				}
			}
		}
		// Develop the field with a few real solver steps so the served edge
		// loop runs over MPDATA state, not the synthetic initial condition.
		solver, err := mpdata.New(g, mpdata.Config{})
		if err != nil {
			panic(fmt.Sprintf("bench: mpdata solver: %v", err))
		}
		seq := sched.NewSequential()
		solver.Run(seq, 4)
		seq.Close()
		kernels.psi = append([]float64(nil), solver.Psi...)

		kernels.pts = linreg.Generate(linregPoints)

		kernels.histData = make([]byte, histBytes)
		state := uint64(0x243f6a8885a308d3)
		for i := range kernels.histData {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			kernels.histData[i] = byte(state)
		}
	})
	return &kernels
}

// segment returns the first contiguous piece [b, e) of the virtual range
// [lo, hi), lo < hi, folded modulo size onto a kernel's natural input.
func segment(lo, hi, size int) (b, e int) {
	b = lo % size
	return b, min(b+hi-lo, size)
}

// donor returns a when x's sign bit is clear and b when it is set: the sign
// bit, spread into a mask, picks the index without a branch, which would
// mispredict on velocity signs that follow the grid's geometry.
func donor(x float64, a, b int32) int32 {
	m := int32(int64(math.Float64bits(x)) >> 63)
	return a ^ (m & (a ^ b))
}

func init() {
	// mpdata: the donor-cell upwind edge loop of the MPDATA pass, over the
	// paper-sized grid (16399 edges) and a developed field. The result is
	// the total transported mass rate Σ|flux| over the requested range.
	jobWorkloads["mpdata"] = func(p JobParams) jobs.Request {
		ks := kernelInput()
		g, psi, vn := ks.g, ks.psi, ks.vn
		edges := g.NumEdges()
		return jobs.Request{
			N:           p.N,
			Label:       "mpdata",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				for lo < hi {
					b, e := segment(lo, hi, edges)
					lo += e - b
					v, ea, eb := vn[b:e], g.EdgeFrom[b:e], g.EdgeTo[b:e]
					ea, eb = ea[:len(v)], eb[:len(v)]
					for k, x := range v {
						// The donor is EdgeFrom for x >= 0 and EdgeTo
						// otherwise; a -0 velocity picks EdgeTo, but its
						// flux is a zero either way, and adding a zero of
						// either sign leaves a non-negative acc unchanged.
						acc += math.Abs(x * psi[donor(x, ea[k], eb[k])])
					}
				}
				return acc
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	}

	// grid: the MPDATA point loop — a CSR gather over each point's incident
	// edges (variable degree, irregular indices). The result is the sum of
	// squared flux divergences.
	jobWorkloads["grid"] = func(p JobParams) jobs.Request {
		ks := kernelInput()
		g, psi, nbr, sv := ks.g, ks.psi, ks.nbr, ks.sv
		points := g.NumPoints
		return jobs.Request{
			N:           p.N,
			Label:       "grid",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				for lo < hi {
					b, e := segment(lo, hi, points)
					lo += e - b
					ends, area := g.IncidentStart[b+1:e+1], g.Area[b:e]
					area = area[:len(ends)]
					k0 := g.IncidentStart[b]
					for i, k1 := range ends {
						pt := int32(b + i)
						v, nb := sv[k0:k1], nbr[k0:k1]
						nb = nb[:len(v)]
						k0 = k1
						// An outflow (x > 0) takes its donor at pt, an
						// inflow at the neighbour. (−v)·ψ is exactly
						// −(v·ψ), so adding the outward-signed flux rounds
						// like subtracting an inflow; a zero velocity adds
						// a zero, which cannot change div: div starts at +0
						// and never becomes −0.
						div := 0.0
						for k, x := range v {
							div += x * psi[donor(x, pt, nb[k])]
						}
						acc += div * div / area[i]
					}
				}
				return acc
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	}

	// linreg: the Phoenix++ linear_regression map phase — each chunk folds
	// its points into the six regression statistics with the dataset's
	// integer map, reduced to the sum of all statistics.
	jobWorkloads["linreg"] = func(p JobParams) jobs.Request {
		pts := kernelInput().pts
		size := len(pts.Points)
		return jobs.Request{
			N:           p.N,
			Label:       "linreg",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				var st linreg.Stats
				for lo < hi {
					b, e := segment(lo, hi, size)
					lo += e - b
					st = st.Add(pts.Sum(b, e))
				}
				return acc + st.SX + st.SY + st.SXX + st.SYY + st.SXY + st.N
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	}

	// mapreduce: a Phoenix++ array-container histogram over pseudo-random
	// bytes, reduced to the bucket-weighted count Σ_k (k+1)·hist[k] — a
	// closed iteration-determined result (each input byte contributes its
	// bucket index plus one). Each segment counts into integer bins, added
	// to the float container once per key.
	jobWorkloads["mapreduce"] = func(p JobParams) jobs.Request {
		data := kernelInput().histData
		size := len(data)
		return jobs.Request{
			N:           p.N,
			Label:       "mapreduce",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				var hist [histKeys]float64
				for lo < hi {
					b, e := segment(lo, hi, size)
					lo += e - b
					var n [histKeys]uint32
					for _, x := range data[b:e] {
						n[x&(histKeys-1)]++
					}
					for k, c := range n {
						hist[k] += float64(c)
					}
				}
				for k, v := range hist {
					acc += float64(k+1) * v
				}
				return acc
			},
			MaxWorkers: p.MaxWorkers,
			Grain:      p.Grain,
		}
	}
}
