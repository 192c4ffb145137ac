package main

import (
	"cmp"
	"math"
	"math/rand/v2"
	"time"

	"loopsched"
	"loopsched/internal/grid"
	"loopsched/internal/mpdata"
	"loopsched/internal/sched"
)

// mpdataRound is the number of time steps between two output checks: after
// each round the field is compared with the sequential reference and reset
// to the seeded initial condition.
const mpdataRound = 200

// mpdataSync is the mpdata-sync workload: one master steps the MPDATA solver
// on the paper's grid through the public Pool's scheduler.
type mpdataSync struct {
	pool   *loopsched.Pool
	solver *mpdata.Solver
	psi0   []float64 // seeded initial field
	want   []float64 // field after mpdataRound sequential steps from psi0
	mass0  float64
}

// seededField returns a strictly positive initial field: a background plus
// three cones whose centres, radii and heights come from the seed.
func seededField(g *grid.Grid, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x6d7064617461))
	var maxX, maxY float64
	for p := 0; p < g.NumPoints; p++ {
		maxX, maxY = math.Max(maxX, g.X[p]), math.Max(maxY, g.Y[p])
	}
	psi := make([]float64, g.NumPoints)
	for p := range psi {
		psi[p] = 0.05
	}
	for c := 0; c < 3; c++ {
		cx, cy := maxX*(0.2+0.6*rng.Float64()), maxY*(0.2+0.6*rng.Float64())
		r := math.Min(maxX, maxY) * (0.1 + 0.15*rng.Float64())
		h := 0.5 + rng.Float64()
		for p := range psi {
			if d := math.Hypot(g.X[p]-cx, g.Y[p]-cy); d < r {
				psi[p] += h * (1 - d/r)
			}
		}
	}
	return psi
}

// newMPDATA builds the program state of the workload: the paper grid, the
// solver (one corrective pass) with the seeded field, and the Pool, then
// runs one step so every lazy initialisation is done.
func newMPDATA(seed uint64) (*mpdataSync, error) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		return nil, err
	}
	s, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		return nil, err
	}
	w := &mpdataSync{solver: s, psi0: seededField(g, seed)}
	copy(s.Psi, w.psi0)
	w.pool = loopsched.New(loopsched.Config{})
	s.Step(w.pool.Scheduler())
	copy(s.Psi, w.psi0)
	return w, nil
}

// reference computes the checks' expected values apart from the parallel
// runtime: mpdataRound steps under sched.NewSequential on a clone.
func (w *mpdataSync) reference(opts) error {
	ref := w.solver.Clone()
	copy(ref.Psi, w.psi0)
	ref.Run(sched.NewSequential(), mpdataRound)
	w.want = append([]float64(nil), ref.Psi...)
	w.mass0 = mass(w.psi0, w.solver.Grid().Area)
	return nil
}

func (w *mpdataSync) close() { w.pool.Close() }

// endRound checks the field after a round and resets it for the next one.
func (w *mpdataSync) endRound() error {
	err := checkField(w.solver.Psi, w.want, w.solver.Grid().Area, w.mass0)
	copy(w.solver.Psi, w.psi0)
	return err
}

// timedSched wraps the Pool's scheduler and times every For call, from the
// benchmark's side of the call.
type timedSched struct {
	sched.Scheduler
	forLat []time.Duration
}

func (t *timedSched) For(n int, body sched.Body) {
	start := time.Now()
	t.Scheduler.For(n, body)
	t.forLat = append(t.forLat, time.Since(start))
}

// run steps the solver in whole rounds until the deadline has passed. It
// runs on the goroutine that created the Pool, as the synchronous API
// requires.
func (w *mpdataSync) run(o opts, res *result) error {
	var run sched.Scheduler = w.pool.Scheduler()
	var ts *timedSched
	var stepLat, inFor []time.Duration
	if o.trace {
		ts = &timedSched{Scheduler: run, forLat: make([]time.Duration, 0, 1<<20)}
		run = ts
	}
	rtBefore := readRuntime()
	t0 := time.Now()
	rec := newRecorder(t0, 1<<17)
	cpu := startCPUSampler(t0, o.window())
	deadline := t0.Add(o.duration())
	var firstErr error
	for time.Now().Before(deadline) {
		for i := 0; i < mpdataRound; i++ {
			start := time.Now()
			nFor := 0
			if ts != nil {
				nFor = len(ts.forLat)
			}
			w.solver.Step(run)
			rec.add(start)
			if ts != nil {
				stepLat = append(stepLat, rec.samples[len(rec.samples)-1].lat)
				var d time.Duration
				for _, f := range ts.forLat[nFor:] {
					d += f
				}
				inFor = append(inFor, d)
			}
		}
		// A round is checked as a whole, so a rejected field fails each of
		// its steps.
		res.attempted += mpdataRound
		if err := w.endRound(); err != nil {
			res.failed += mpdataRound
			firstErr = cmp.Or(firstErr, err)
		}
	}
	ph := summarise([]*recorder{rec}, cpu.finish())
	res.phase(ph)
	if firstErr != nil {
		return firstErr
	}
	if !o.trace {
		return nil
	}
	res.addRuntime(rtBefore, ph.ops)
	res.layer["trace.ops_per_s"] = ph.opsPerS
	res.layer["core.for_calls_per_step"] = float64(len(ts.forLat)) / float64(ph.ops)
	res.dist("core.for_us_p50", ts.forLat)
	var master []time.Duration
	for i := range stepLat {
		master = append(master, stepLat[i]-inFor[i])
	}
	res.dist("mpdata.master_us_per_step", master)

	// Probes after the timed phase: an empty For of one iteration per
	// worker (the scheduler's burden), then the kernel-only baseline, its
	// steps interleaved with parallel ones so both see the same machine.
	p := w.pool.Workers()
	empty := make([]time.Duration, 0, 20000)
	for i := 0; i < cap(empty); i++ {
		start := time.Now()
		w.pool.For(p, func(int, int, int) {})
		empty = append(empty, time.Since(start))
	}
	res.dist("core.empty_for_us_p50", empty)
	seq := w.solver.Clone()
	copy(seq.Psi, w.psi0)
	copy(w.solver.Psi, w.psi0)
	var seqLat, parLat []time.Duration
	for i := 0; i < 2*mpdataRound; i++ {
		start := time.Now()
		seq.Step(sched.NewSequential())
		mid := time.Now()
		w.solver.Step(w.pool.Scheduler())
		seqLat, parLat = append(seqLat, mid.Sub(start)), append(parLat, time.Since(mid))
	}
	seqStep := res.dist("mpdata.seq_step_us_p50", seqLat)
	res.layer["mpdata.parallel_efficiency"] = seqStep / (float64(p) * p50us(parLat))
	res.layer["mpdata.bytes_per_step"] = float64(mpdataBytesPerStep(w.solver))
	res.layer["pool.idle_cores"] = idleCores(idleProbe)
	return nil
}

// mpdataBytesPerStep counts the bytes one time step reads and writes, each
// array element counted once per loop that touches it (compulsory traffic;
// float64 fields are 8 bytes, grid indices 4).
func mpdataBytesPerStep(s *mpdata.Solver) int {
	g := s.Grid()
	e, p, inc := g.NumEdges(), g.NumPoints, len(g.IncidentEdges)
	// Edge flux loop: velocity, both endpoints, the gathered field value
	// (up to two points per edge, bounded by the point count) and the flux.
	edgeFlux := e*(8+4+4+8) + min(2*e, p)*8
	// Point loop: CSR offsets, incident edge ids, their fluxes and from
	// endpoints, area, the old field and the new one.
	point := (p+1)*4 + inc*4 + e*8 + e*4 + p*(8+8+8)
	// Antidiffusive edge loop: endpoints, velocity, the field at both ends
	// and the corrective velocity.
	anti := e*(4+4+8+8) + p*8
	passes := 1 + 1 // the upwind pass and one corrective pass
	return passes*(edgeFlux+point) + anti
}

// mpdataFieldCheck runs a few steps on a Pool and under sched.NewSequential
// and returns both fields; the self-test corrupts the parallel one.
func mpdataFieldCheck(steps int) (got, want, area []float64, mass0 float64, err error) {
	w, err := newMPDATA(1)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer w.close()
	ref := w.solver.Clone()
	w.solver.Run(w.pool.Scheduler(), steps)
	ref.Run(sched.NewSequential(), steps)
	area = w.solver.Grid().Area
	return w.solver.Psi, ref.Psi, area, mass(w.psi0, area), nil
}
