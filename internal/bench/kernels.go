package bench

// kernels.go promotes the seed's numeric kernels — the workloads the paper's
// fine-grain loop scheduling was designed for — to first-class served job
// workloads, so cmd/loopd and the trace-driven load generator exercise real
// memory-bound and reduction-heavy loops, not just calibrated spins:
//
//   - mpdata:    the MPDATA donor-cell edge loop (Figure 2): an upwind flux
//                computation per edge of the paper-sized unstructured grid —
//                one gather of the field per edge from a donor table;
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
// about 13 µs (mpdata), 35 µs (grid), 40 µs (linreg) and 33 µs
// (mapreduce) on one core of a 2-vCPU Xeon (Go 1.24; medians of 5 runs of
// BenchmarkServedKernels), against 69, 122, 60 and 244 µs for the plain
// branching reference bodies in kernels_test.go, which
// TestServedKernelsMatchReferenceBitwise holds every result equal to bit for
// bit. The only tables are per-CSR-slot and per-edge facts of the grid and
// the fixed velocity field, the shape of the solver's upwind tables;
// nothing derived from the field psi is tabulated, and nothing is kept
// between requests.

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

	// For each CSR slot k of g.IncidentEdges, belonging to point p: sv[k]
	// is the edge's velocity signed outward from p (+vn when p is the edge's
	// EdgeFrom end, -vn otherwise) and slotDonor[k] the point whose value it
	// carries: p for an outflow (sv[k]'s sign bit clear), the edge's other
	// endpoint otherwise. edgeDonor[e] is edge e's upwind point: EdgeFrom
	// when vn[e]'s sign bit is clear, EdgeTo otherwise. All three are fixed
	// facts of the grid and the wind, like vn.
	sv        []float64
	slotDonor []int32
	edgeDonor []int32

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
		kernels.edgeDonor = make([]int32, g.NumEdges())
		for e, v := range kernels.vn {
			kernels.edgeDonor[e] = donor(v, g.EdgeFrom[e], g.EdgeTo[e])
		}
		kernels.sv = make([]float64, len(g.IncidentEdges))
		kernels.slotDonor = make([]int32, len(g.IncidentEdges))
		for p := 0; p < g.NumPoints; p++ {
			for k := g.IncidentStart[p]; k < g.IncidentStart[p+1]; k++ {
				ei := g.IncidentEdges[k]
				nbr, v := g.EdgeTo[ei], kernels.vn[ei]
				if int(nbr) == p {
					nbr, v = g.EdgeFrom[ei], -v
				}
				kernels.sv[k] = v
				kernels.slotDonor[k] = donor(v, int32(p), nbr)
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

// donor returns a when x's sign bit is clear and b when it is set.
func donor(x float64, a, b int32) int32 {
	if math.Signbit(x) {
		return b
	}
	return a
}

func init() {
	// mpdata: the donor-cell upwind edge loop of the MPDATA pass, over the
	// paper-sized grid (16399 edges) and a developed field. The result is
	// the total transported mass rate Σ|flux| over the requested range.
	jobWorkloads["mpdata"] = func(p JobParams) jobs.Request {
		ks := kernelInput()
		psi, vn, dn := ks.psi, ks.vn, ks.edgeDonor
		edges := len(vn)
		return jobs.Request{
			N:           p.N,
			Label:       "mpdata",
			Commutative: true,
			Combine:     func(a, b float64) float64 { return a + b },
			RBody: func(w, lo, hi int, acc float64) float64 {
				for lo < hi {
					b, e := segment(lo, hi, edges)
					lo += e - b
					v, d := vn[b:e], dn[b:e]
					d = d[:len(v)]
					for k, x := range v {
						// A -0 velocity's donor is EdgeTo, but its flux is
						// a zero either way, and adding a zero of either
						// sign leaves a non-negative acc unchanged.
						acc += math.Abs(x * psi[d[k]])
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
		g, psi, sv, dn := ks.g, ks.psi, ks.sv, ks.slotDonor
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
						v, d := sv[k0:k1], dn[k0:k1]
						d = d[:len(v)]
						k0 = k1
						// (−v)·ψ is exactly −(v·ψ), so adding the
						// outward-signed flux rounds like subtracting an
						// inflow; a zero velocity adds a zero, which cannot
						// change div: div starts at +0 and never becomes
						// −0. The conversion rounds each product before
						// the add, as the reference does. Degrees 8 and 4,
						// almost every point of the paper grid, sum the
						// same terms in the same order without a loop.
						var div float64
						switch len(v) {
						case 8:
							v, d := (*[8]float64)(v), (*[8]int32)(d)
							div = 0.0 + float64(v[0]*psi[d[0]]) + float64(v[1]*psi[d[1]]) +
								float64(v[2]*psi[d[2]]) + float64(v[3]*psi[d[3]]) +
								float64(v[4]*psi[d[4]]) + float64(v[5]*psi[d[5]]) +
								float64(v[6]*psi[d[6]]) + float64(v[7]*psi[d[7]])
						case 4:
							v, d := (*[4]float64)(v), (*[4]int32)(d)
							div = 0.0 + float64(v[0]*psi[d[0]]) + float64(v[1]*psi[d[1]]) +
								float64(v[2]*psi[d[2]]) + float64(v[3]*psi[d[3]])
						default:
							for k, x := range v {
								div += float64(x * psi[d[k]])
							}
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
