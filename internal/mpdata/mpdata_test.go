package mpdata

import (
	"math"
	"os"
	"runtime"
	"testing"

	"loopsched/internal/core"
	"loopsched/internal/grid"
	"loopsched/internal/omp"
	"loopsched/internal/sched"
	"loopsched/internal/spin"
)

func TestMain(m *testing.M) {
	// Some runtimes below have more workers than a small test machine has
	// cores, and the production spin thresholds (tuned for dedicated pinned
	// workers) then waste milliseconds per wait. Shrink them; the kernels
	// under test are unchanged.
	spin.ActiveSpins = 1 << 6
	spin.YieldThreshold = 1 << 8
	os.Exit(m.Run())
}

func smallGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g, err := grid.NewTriangulated(12, 14, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Errorf("accepted a nil grid")
	}
	g := smallGrid(t)
	if _, err := New(g, Config{Corrective: -1}); err == nil {
		t.Errorf("accepted a negative corrective count")
	}
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dt() <= 0 {
		t.Errorf("auto time step %v", s.Dt())
	}
	if s.Grid() != g {
		t.Errorf("Grid() does not return the construction grid")
	}
}

// countingSched counts the For calls issued through it.
type countingSched struct {
	sched.Scheduler
	fors int
}

func (c *countingSched) For(n int, body sched.Body) {
	c.fors++
	c.Scheduler.For(n, body)
}

func TestLoopsPerStepCountsForCalls(t *testing.T) {
	g := smallGrid(t)
	for corrective := 1; corrective <= 3; corrective++ {
		s, err := New(g, Config{Corrective: corrective})
		if err != nil {
			t.Fatal(err)
		}
		run := &countingSched{Scheduler: sched.NewSequential()}
		s.Step(run)
		if got := s.LoopsPerStep(); got != run.fors {
			t.Errorf("Corrective %d: LoopsPerStep = %d, Step issued %d For calls", corrective, got, run.fors)
		}
	}
}

// referenceStep advances s by one time step sequentially, with the plain
// branching loop bodies: every pass is an edge loop writing fluxes and a
// point loop gathering them, the upwind flux branches on the velocity sign,
// the point loop on which end of the edge the point is, and the
// antidiffusive factor |C|-C² is computed per edge from vn into vnCorr (one
// value per edge), which holds the last corrective pass's velocities on
// return. The solver's kernels must match it bit for bit.
func referenceStep(s *Solver, vnCorr []float64) {
	g, dt, eps := s.g, s.cfg.Dt, s.cfg.Epsilon
	pass := func(v, from, to []float64) {
		for e := 0; e < g.NumEdges(); e++ {
			vn := v[e]
			a, b := g.EdgeFrom[e], g.EdgeTo[e]
			if vn >= 0 {
				s.flux[e] = vn * from[a]
			} else {
				s.flux[e] = vn * from[b]
			}
		}
		for p := 0; p < g.NumPoints; p++ {
			div := 0.0
			for _, ei := range g.IncidentEdges[g.IncidentStart[p]:g.IncidentStart[p+1]] {
				f := s.flux[ei]
				if int(g.EdgeFrom[ei]) == p {
					div += f
				} else {
					div -= f
				}
			}
			to[p] = from[p] - dt*div/g.Area[p]
		}
	}
	pass(s.vn, s.Psi, s.next)
	s.Psi, s.next = s.next, s.Psi
	for i := 0; i < s.cfg.Corrective; i++ {
		psi := s.Psi
		for e := 0; e < g.NumEdges(); e++ {
			a, b := g.EdgeFrom[e], g.EdgeTo[e]
			num := psi[b] - psi[a]
			den := psi[b] + psi[a] + eps
			c := s.vn[e] * dt
			vnCorr[e] = (math.Abs(c) - c*c) * (num / den) / dt
		}
		pass(vnCorr, s.Psi, s.next)
		s.Psi, s.next = s.next, s.Psi
	}
	s.steps++
}

// signedZeroVelocities gives every 11th edge a -0 velocity with a negative
// field value at its from end and every 13th a +0 velocity, so the donor
// pick sees zero velocities of both signs whose two candidate fluxes are
// zeros of opposite sign. Those edges' antidiffusive factor is +0, so their
// corrective velocities are zeros too, of the sign of the field gradient,
// and the corrective flux loop's donor select sees -0 as well.
func signedZeroVelocities(s *Solver) {
	for e := range s.vn {
		switch {
		case e%11 == 0:
			s.vn[e] = math.Copysign(0, -1)
			s.Psi[s.g.EdgeFrom[e]] = -0.01
		case e%13 == 0:
			s.vn[e] = 0
		}
	}
	s.initTables()
}

func TestKernelsMatchReferenceBitwise(t *testing.T) {
	const steps = 200
	type refCase struct {
		name    string
		g       *grid.Grid
		prepare func(*Solver)
	}
	small := smallGrid(t)
	cases := []refCase{
		{"small grid", small, nil},
		{"small grid with signed zero velocities", small, signedZeroVelocities},
	}
	if !testing.Short() {
		g, err := grid.NewPaperGrid()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, refCase{"paper grid", g, nil})
	}
	for _, tc := range cases {
		for _, corrective := range []int{1, 3} {
			base, err := New(tc.g, Config{Corrective: corrective})
			if err != nil {
				t.Fatal(err)
			}
			if tc.prepare != nil {
				tc.prepare(base)
			}
			ref := base.Clone()
			vnCorr := make([]float64, tc.g.NumEdges())
			negZero := 0
			for i := 0; i < steps; i++ {
				referenceStep(ref, vnCorr)
				for _, v := range vnCorr {
					if v == 0 && math.Signbit(v) {
						negZero++
					}
				}
			}
			if tc.prepare != nil && negZero == 0 {
				t.Errorf("%s, Corrective %d: no -0 corrective velocity in %d steps", tc.name, corrective, steps)
			}
			for _, rt := range []sched.Scheduler{
				sched.NewSequential(),
				core.New(core.Config{Workers: 2, LockOSThread: false}),
				core.New(core.Config{Workers: 3, LockOSThread: false}),
				core.New(core.Config{Workers: 2, Steal: true, LockOSThread: false}),
				omp.New(omp.Config{Workers: 2, Schedule: omp.Dynamic, Chunk: 64, LockOSThread: false}),
			} {
				s := base.Clone()
				s.Run(rt, steps)
				rt.Close()
				for p := range s.Psi {
					if math.Float64bits(s.Psi[p]) != math.Float64bits(ref.Psi[p]) {
						t.Errorf("%s, Corrective %d, %s: after %d steps point %d is %v, reference %v",
							tc.name, corrective, rt.Name(), steps, p, s.Psi[p], ref.Psi[p])
						break
					}
				}
			}
		}
	}
}

func TestInitialConditionIsPositiveWithCone(t *testing.T) {
	g := smallGrid(t)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range s.Psi {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 0.049 || min > 0.051 {
		t.Errorf("background value %v, want 0.05", min)
	}
	if max <= 0.5 || max > 1.06 {
		t.Errorf("cone peak %v, want ~1.05", max)
	}
}

func TestMassConservationSequential(t *testing.T) {
	g := smallGrid(t)
	s, err := New(g, Config{Corrective: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq := sched.NewSequential()
	m0 := s.Mass(seq)
	s.Run(seq, 40)
	m1 := s.Mass(seq)
	if rel := math.Abs(m1-m0) / math.Abs(m0); rel > 1e-12 {
		t.Errorf("mass drifted by %v (from %v to %v)", rel, m0, m1)
	}
	if s.Steps() != 40 {
		t.Errorf("Steps = %d", s.Steps())
	}
}

func TestFieldStaysBoundedAndFinite(t *testing.T) {
	g := smallGrid(t)
	s, err := New(g, Config{Corrective: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := sched.NewSequential()
	s.Run(seq, 100)
	min, max := s.MinMax(seq)
	if math.IsNaN(min) || math.IsNaN(max) || math.IsInf(min, 0) || math.IsInf(max, 0) {
		t.Fatalf("field blew up: min=%v max=%v", min, max)
	}
	// Upwind advection is diffusive; with the antidiffusive correction small
	// over/undershoots can appear, but the field must stay within a loose
	// envelope of the initial range [0.05, 1.05].
	if min < -0.1 || max > 1.5 {
		t.Errorf("field out of physical envelope: [%v, %v]", min, max)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	g := smallGrid(t)
	base, err := New(g, Config{Corrective: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqSolver := base.Clone()
	seq := sched.NewSequential()
	seqSolver.Run(seq, 25)

	runtimes := []sched.Scheduler{
		core.New(core.Config{Workers: p, LockOSThread: false}),
		core.New(core.Config{Workers: p, Barrier: core.BarrierCentralized, LockOSThread: false}),
		omp.New(omp.Config{Workers: p, Schedule: omp.Static, LockOSThread: false}),
		omp.New(omp.Config{Workers: p, Schedule: omp.Dynamic, Chunk: 16, LockOSThread: false}),
	}
	for _, rt := range runtimes {
		solver := base.Clone()
		solver.Run(rt, 25)
		// The loops are deterministic given the partitioning; only the mass
		// reduction order could differ. Field updates are per-point
		// assignments, so results must agree bit for bit.
		for i := range solver.Psi {
			if math.Float64bits(solver.Psi[i]) != math.Float64bits(seqSolver.Psi[i]) {
				t.Errorf("%s: point %d is %v, sequential gives %v", rt.Name(), i, solver.Psi[i], seqSolver.Psi[i])
				break
			}
		}
		mass := solver.Mass(rt)
		seqMass := seqSolver.Mass(seq)
		if math.Abs(mass-seqMass) > 1e-9*math.Abs(seqMass) {
			t.Errorf("%s: mass %v vs sequential %v", rt.Name(), mass, seqMass)
		}
		rt.Close()
	}
}

func TestAdvectionMovesTheCone(t *testing.T) {
	// The rotational velocity field must transport the cone: the location of
	// the maximum changes after enough steps.
	g := smallGrid(t)
	s, err := New(g, Config{Corrective: 1})
	if err != nil {
		t.Fatal(err)
	}
	argmax := func(xs []float64) int {
		best, bi := math.Inf(-1), 0
		for i, v := range xs {
			if v > best {
				best, bi = v, i
			}
		}
		return bi
	}
	before := argmax(s.Psi)
	seq := sched.NewSequential()
	s.Run(seq, 200)
	after := argmax(s.Psi)
	if before == after {
		t.Errorf("cone did not move (argmax stayed at %d)", before)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := smallGrid(t)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	seq := sched.NewSequential()
	s.Run(seq, 5)
	if s.Steps() == c.Steps() {
		t.Errorf("clone advanced with the original")
	}
	diff := 0.0
	for i := range c.Psi {
		diff += math.Abs(c.Psi[i] - s.Psi[i])
	}
	if diff == 0 {
		t.Errorf("running the original did not change its field relative to the clone")
	}
}

func TestPaperGridStep(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size grid in -short mode")
	}
	g, err := grid.NewPaperGrid()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{Corrective: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := sched.NewSequential()
	m0 := s.Mass(seq)
	s.Run(seq, 5)
	m1 := s.Mass(seq)
	if math.Abs(m1-m0) > 1e-9*math.Abs(m0) {
		t.Errorf("mass drift on the paper grid: %v -> %v", m0, m1)
	}
}
