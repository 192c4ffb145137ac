// Package mpdata implements a finite-volume MPDATA advection solver
// (Multidimensional Positive Definite Advection Transport Algorithm,
// Smolarkiewicz) on the unstructured grids of package grid. It is the
// workload of Figure 2 of the paper.
//
// Each time step performs the classic MPDATA structure:
//
//  1. an upwind (donor-cell) pass with the fixed physical velocities, and
//  2. one or more corrective passes that re-advect the field with
//     "antidiffusive" edge velocities derived from the intermediate field.
//
// The upwind velocities never change after New, so the upwind pass is a
// single point loop: every CSR slot of a point carries its outward-signed
// velocity and its donor point, and the point sums velocity times donor
// value in CSR order. A corrective pass is an edge loop that computes each
// edge's antidiffusive velocity and its donor-cell flux in one iteration,
// followed by a point loop applying the flux divergence. A time step thus
// issues 1 + 2·Corrective parallel loops, and on a given grid every field
// stays equal bit for bit to the plain edge-loop-plus-point-loop
// formulation. Both point loops sum a point's CSR slots in edge-number
// order, so renumbering a grid's edges moves the fields at round-off.
// Almost every point of a triangulated grid has degree 8 or 4, and the
// point loops sum those two degrees without an inner loop.
//
// On the paper's grid (5568 points, 16399 edges) with one corrective pass,
// a step takes about 120 µs on one core of a 2-vCPU Xeon (Go 1.24) and
// about 70 µs on two workers. Alone on one core the upwind loop takes
// about 34 µs, the corrective flux loop 51 µs and its divergence loop
// 38 µs; split over two workers, about 27, 28 and 19 µs
// (BenchmarkMPDATALoops), against 0.74 µs for an empty loop. Each added worker shrinks a loop's
// share further, towards the fine-grain regime where scheduler burden
// dominates, so the solver's scalability is a direct function of the loop
// scheduler's overhead. All loops are dispatched through a pluggable
// sched.Scheduler so the same solver runs under the fine-grain, OpenMP-style
// and Cilk-style runtimes.
package mpdata

import (
	"errors"
	"math"

	"loopsched/internal/grid"
	"loopsched/internal/sched"
)

// Config configures the solver.
type Config struct {
	// Dt is the time step. It must keep the Courant number below 1; Auto
	// (Dt <= 0) selects 0.2/maxSpeed.
	Dt float64
	// Corrective is the number of antidiffusive corrective passes per step
	// (the paper's MPDATA uses 1-3; default 1).
	Corrective int
	// Epsilon guards divisions in the antidiffusive velocity; default 1e-15.
	Epsilon float64
}

// Solver advances a scalar field under advection on an unstructured grid.
type Solver struct {
	g   *grid.Grid
	cfg Config

	// Psi is the advected scalar field (one value per point).
	Psi []float64
	// next receives the updated field during a pass.
	next []float64

	// vn is the prescribed normal velocity at each edge (positive from
	// EdgeFrom towards EdgeTo).
	vn []float64

	// flux is the per-edge flux of the current corrective pass.
	flux []float64

	// sign holds, for each CSR slot of g.IncidentEdges, +1 when the slot's
	// point is the edge's EdgeFrom end (the flux leaves it) and -1 otherwise,
	// so the point loop adds sign·flux instead of branching on the endpoint.
	// coef holds each edge's antidiffusive factor |C|-C² with the Courant
	// number C = vn·dt. upVel holds each slot's outward-signed upwind
	// velocity sign·vn and upDonor the slot's upwind donor point. All four
	// depend only on the grid, vn and dt, which are fixed after New, so
	// clones share them.
	sign    []float64
	coef    []float64
	upVel   []float64
	upDonor []int32

	steps int
}

// New creates a solver on g with a solid-body-rotation velocity field and a
// cone-shaped initial condition, the standard MPDATA test problem.
func New(g *grid.Grid, cfg Config) (*Solver, error) {
	if g == nil {
		return nil, errors.New("mpdata: nil grid")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.Corrective < 0 {
		return nil, errors.New("mpdata: negative corrective pass count")
	}
	if cfg.Corrective == 0 {
		cfg.Corrective = 1
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 1e-15
	}
	s := &Solver{
		g:    g,
		cfg:  cfg,
		Psi:  make([]float64, g.NumPoints),
		next: make([]float64, g.NumPoints),
		vn:   make([]float64, g.NumEdges()),
		flux: make([]float64, g.NumEdges()),
	}
	s.initFields()
	if cfg.Dt <= 0 {
		maxV := 0.0
		for _, v := range s.vn {
			if a := math.Abs(v); a > maxV {
				maxV = a
			}
		}
		if maxV == 0 {
			maxV = 1
		}
		cfg.Dt = 0.2 / maxV
	}
	s.cfg.Dt = cfg.Dt
	s.initTables()
	return s, nil
}

// initTables fills sign from the grid, and coef, upVel and upDonor from vn
// and dt.
func (s *Solver) initTables() {
	g := s.g
	s.sign = make([]float64, len(g.IncidentEdges))
	s.upVel = make([]float64, len(g.IncidentEdges))
	s.upDonor = make([]int32, len(g.IncidentEdges))
	for p := 0; p < g.NumPoints; p++ {
		for k := g.IncidentStart[p]; k < g.IncidentStart[p+1]; k++ {
			e := g.IncidentEdges[k]
			s.sign[k] = -1
			if int(g.EdgeFrom[e]) == p {
				s.sign[k] = 1
			}
			// The donor is EdgeFrom when vn's sign bit is clear and EdgeTo
			// otherwise, so a -0 velocity takes EdgeTo, as the edge-loop
			// form's sign-bit select does. sign·(vn·ψ) is exactly
			// (sign·vn)·ψ because sign is ±1.
			v := s.vn[e]
			s.upVel[k] = s.sign[k] * v
			s.upDonor[k] = g.EdgeFrom[e]
			if math.Signbit(v) {
				s.upDonor[k] = g.EdgeTo[e]
			}
		}
	}
	s.coef = make([]float64, len(s.vn))
	for e, v := range s.vn {
		c := v * s.cfg.Dt
		s.coef[e] = math.Abs(c) - c*c
	}
}

// initFields sets the rotational velocity field and the initial cone.
func (s *Solver) initFields() {
	g := s.g
	// Domain centre and extent.
	var cx, cy, maxX, maxY float64
	for p := 0; p < g.NumPoints; p++ {
		cx += g.X[p]
		cy += g.Y[p]
		if g.X[p] > maxX {
			maxX = g.X[p]
		}
		if g.Y[p] > maxY {
			maxY = g.Y[p]
		}
	}
	cx /= float64(g.NumPoints)
	cy /= float64(g.NumPoints)

	// Solid-body rotation about the centre: u = -(y-cy), v = (x-cx),
	// normalised so the maximum speed is 1.
	maxR := math.Hypot(maxX-cx, maxY-cy)
	if maxR == 0 {
		maxR = 1
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.EdgeFrom[e], g.EdgeTo[e]
		mx := 0.5 * (g.X[a] + g.X[b])
		my := 0.5 * (g.Y[a] + g.Y[b])
		u := -(my - cy) / maxR
		v := (mx - cx) / maxR
		s.vn[e] = u*g.EdgeNX[e] + v*g.EdgeNY[e]
	}

	// Initial condition: a cone of height 1 and radius maxR/4 centred at
	// (cx + maxR/3, cy), on a background of 0.05 (strictly positive so the
	// positive-definiteness property is meaningful).
	r0 := maxR / 4
	ox := cx + maxR/3
	for p := 0; p < g.NumPoints; p++ {
		d := math.Hypot(g.X[p]-ox, g.Y[p]-cy)
		s.Psi[p] = 0.05
		if d < r0 {
			s.Psi[p] = 0.05 + (1 - d/r0)
		}
	}
}

// Grid returns the solver's grid.
func (s *Solver) Grid() *grid.Grid { return s.g }

// Dt returns the time step in use.
func (s *Solver) Dt() float64 { return s.cfg.Dt }

// Steps returns the number of completed time steps.
func (s *Solver) Steps() int { return s.steps }

// LoopsPerStep returns the number of parallel loops issued per time step:
// the upwind point loop, and for each corrective pass its flux edge loop and
// its point loop.
func (s *Solver) LoopsPerStep() int { return 1 + 2*s.cfg.Corrective }

// Step advances the field by one time step, dispatching every loop through
// the supplied scheduler.
func (s *Solver) Step(run sched.Scheduler) {
	// Upwind pass with the physical velocities.
	s.upwind(run, s.Psi, s.next)
	s.Psi, s.next = s.next, s.Psi

	// Corrective passes with antidiffusive velocities.
	for c := 0; c < s.cfg.Corrective; c++ {
		s.correctiveFluxes(run, s.Psi)
		s.divergence(run, s.Psi, s.next)
		s.Psi, s.next = s.next, s.Psi
	}
	s.steps++
}

// upwind performs the donor-cell pass under the physical velocities as one
// point loop: each point sums upVel·from[upDonor] over its CSR slots, in the
// order the edge-flux form sums sign·flux, and applies the divergence into
// `to`. Each block is resliced to [begin, end) so the compiler drops the
// bounds checks on the per-block arrays, and the loop bodies capture only s
// and the pass's arguments, which keeps the closures allocated per loop
// small.
func (s *Solver) upwind(run sched.Scheduler, from, to []float64) {
	run.For(s.g.NumPoints, func(w, begin, end int) {
		g, sv, dn, dt := s.g, s.upVel, s.upDonor, s.cfg.Dt
		old, out, area := from[begin:end], to[begin:end], g.Area[begin:end]
		ends := g.IncidentStart[begin+1 : end+1]
		old, out, area = old[:len(ends)], out[:len(ends)], area[:len(ends)]
		lo := g.IncidentStart[begin]
		for i, hi := range ends {
			v, d := sv[lo:hi], dn[lo:hi]
			lo = hi
			d = d[:len(v)]
			// The conversion rounds the product before the add, so no
			// target fuses them into one multiply-add: the edge-flux form
			// rounds the flux when it stores it. Degrees 8 and 4 sum the
			// same terms in the same order without a loop; the leading
			// 0.0 keeps a sum of -0 terms at +0, as the loop's does.
			var div float64
			switch len(v) {
			case 8:
				v, d := (*[8]float64)(v), (*[8]int32)(d)
				div = 0.0 + float64(v[0]*from[d[0]]) + float64(v[1]*from[d[1]]) +
					float64(v[2]*from[d[2]]) + float64(v[3]*from[d[3]]) +
					float64(v[4]*from[d[4]]) + float64(v[5]*from[d[5]]) +
					float64(v[6]*from[d[6]]) + float64(v[7]*from[d[7]])
			case 4:
				v, d := (*[4]float64)(v), (*[4]int32)(d)
				div = 0.0 + float64(v[0]*from[d[0]]) + float64(v[1]*from[d[1]]) +
					float64(v[2]*from[d[2]]) + float64(v[3]*from[d[3]])
			default:
				for k, x := range v {
					div += float64(x * from[d[k]])
				}
			}
			out[i] = old[i] - dt*div/area[i]
		}
	})
}

// correctiveFluxes computes, in one edge loop, each edge's MPDATA corrective
// velocity from the intermediate field psi (the classic |C|(1-|C|) gradient
// correction with unit dual face and unit area, the factor |C|-C²
// precomputed in coef) and its donor-cell flux into s.flux.
func (s *Solver) correctiveFluxes(run sched.Scheduler, psi []float64) {
	run.For(s.g.NumEdges(), func(w, begin, end int) {
		g, dt, eps := s.g, s.cfg.Dt, s.cfg.Epsilon
		cf, fl := s.coef[begin:end], s.flux[begin:end]
		ea, eb := g.EdgeFrom[begin:end], g.EdgeTo[begin:end]
		fl, ea, eb = fl[:len(cf)], ea[:len(cf)], eb[:len(cf)]
		for e, c := range cf {
			pa, pb := psi[ea[e]], psi[eb[e]]
			num := pb - pa
			den := pb + pa + eps
			vc := c * (num / den) / dt
			// Donor-cell upwind flux from a to b: the donor is a when vc's
			// sign bit is clear and b otherwise. The sign bit, spread into
			// a mask, selects between the two loaded values without a
			// branch; the velocity signs follow the field gradient, so a
			// branch mispredicts. A -0 velocity picks b, but its flux is a
			// zero either way, and a signed zero cannot change the point
			// loop's sum: that starts at +0, and no sum of nonzero terms
			// rounds to -0.
			m := uint64(int64(math.Float64bits(vc)) >> 63)
			ba, bb := math.Float64bits(pa), math.Float64bits(pb)
			fl[e] = vc * math.Float64frombits(ba^(m&(ba^bb)))
		}
	})
}

// divergence is a corrective pass's point loop: it applies the divergence
// of s.flux to field `from` into `to`.
func (s *Solver) divergence(run sched.Scheduler, from, to []float64) {
	run.For(s.g.NumPoints, func(w, begin, end int) {
		g, flux, sign, dt := s.g, s.flux, s.sign, s.cfg.Dt
		old, out, area := from[begin:end], to[begin:end], g.Area[begin:end]
		ends := g.IncidentStart[begin+1 : end+1]
		old, out, area = old[:len(ends)], out[:len(ends)], area[:len(ends)]
		lo := g.IncidentStart[begin]
		for i, hi := range ends {
			edges, sg := g.IncidentEdges[lo:hi], sign[lo:hi]
			lo = hi
			sg = sg[:len(edges)]
			// x + (-1)·f rounds exactly like x - f, so the sum matches the
			// branching form bit for bit. Degrees 8 and 4 are unrolled as
			// in upwind.
			var div float64
			switch len(edges) {
			case 8:
				e, sg := (*[8]int32)(edges), (*[8]float64)(sg)
				div = 0.0 + sg[0]*flux[e[0]] + sg[1]*flux[e[1]] +
					sg[2]*flux[e[2]] + sg[3]*flux[e[3]] +
					sg[4]*flux[e[4]] + sg[5]*flux[e[5]] +
					sg[6]*flux[e[6]] + sg[7]*flux[e[7]]
			case 4:
				e, sg := (*[4]int32)(edges), (*[4]float64)(sg)
				div = 0.0 + sg[0]*flux[e[0]] + sg[1]*flux[e[1]] +
					sg[2]*flux[e[2]] + sg[3]*flux[e[3]]
			default:
				for k, ei := range edges {
					div += sg[k] * flux[ei]
				}
			}
			out[i] = old[i] - dt*div/area[i]
		}
	})
}

// Mass returns the total mass Σ ψ·Area, computed as a parallel reduction
// through the scheduler. MPDATA conserves it exactly (up to round-off).
func (s *Solver) Mass(run sched.Scheduler) float64 {
	g := s.g
	psi := s.Psi
	return run.ForReduce(g.NumPoints, 0, func(a, b float64) float64 { return a + b },
		func(w, begin, end int, acc float64) float64 {
			for p := begin; p < end; p++ {
				acc += psi[p] * g.Area[p]
			}
			return acc
		})
}

// MinMax returns the extrema of the field via a vector reduction.
func (s *Solver) MinMax(run sched.Scheduler) (min, max float64) {
	psi := s.Psi
	// Encode min as -max(-x) so the element-wise-sum vector reduction is not
	// applicable; use two scalar reductions instead (each is itself a
	// fine-grain loop, adding to the scheduling pressure the figure
	// measures).
	min = run.ForReduce(len(psi), math.Inf(1), math.Min,
		func(w, begin, end int, acc float64) float64 {
			for p := begin; p < end; p++ {
				if psi[p] < acc {
					acc = psi[p]
				}
			}
			return acc
		})
	max = run.ForReduce(len(psi), math.Inf(-1), math.Max,
		func(w, begin, end int, acc float64) float64 {
			for p := begin; p < end; p++ {
				if psi[p] > acc {
					acc = psi[p]
				}
			}
			return acc
		})
	return min, max
}

// Run advances the solver by n steps under the given scheduler.
func (s *Solver) Run(run sched.Scheduler, n int) {
	for i := 0; i < n; i++ {
		s.Step(run)
	}
}

// Clone returns a copy of the solver (same grid, copied field, its own
// scratch arrays; the read-only sign, coef, upVel and upDonor tables are
// shared), used to run the same initial state under different schedulers.
func (s *Solver) Clone() *Solver {
	c := &Solver{
		g:       s.g,
		cfg:     s.cfg,
		Psi:     append([]float64(nil), s.Psi...),
		next:    make([]float64, len(s.next)),
		vn:      append([]float64(nil), s.vn...),
		flux:    make([]float64, len(s.flux)),
		sign:    s.sign,
		coef:    s.coef,
		upVel:   s.upVel,
		upDonor: s.upDonor,
		steps:   s.steps,
	}
	return c
}
