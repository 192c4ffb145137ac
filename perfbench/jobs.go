package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched"
	"loopsched/internal/grid"
)

// Job kinds and sizes of the jobs-async workload. A fine job is one sweep
// over the paper grid's edges; a coarse job is coarseSweeps sweeps. With a
// quarter of the jobs coarse, this follows the job sizes of the loadgen
// traffic model (DefaultSizes): there the largest quarter of the jobs is
// on average 5.9 times the size of the rest and does 66% of the work, here
// 6 times and 67%.
const coarseSweeps = 6

type jobKind struct {
	write  bool // a plain job writing the submitter's output slice
	coarse bool
}

// jobRound is the make-up of one submitter's round; the seed only shuffles
// the order, so every seed submits the same work. Fine and coarse jobs come
// 3:1 as above. Reads and writes come 1:1: the traffic model has no write
// jobs, and equal shares give both of the async API's entry points the
// same weight.
var jobRound = []struct {
	kind  jobKind
	count int
}{
	{jobKind{write: false, coarse: false}, 6},
	{jobKind{write: true, coarse: false}, 6},
	{jobKind{write: false, coarse: true}, 2},
	{jobKind{write: true, coarse: true}, 2},
}

// edgeInput is the read-only input of the jobs: the paper grid's edge
// endpoints with seeded small-integer point values q and edge weights c.
// term(i) = q[from[e]]·c[e] − q[to[e]] + i/E with e = i mod E is an integer,
// so any fold order of any partition gives the exact same float64 sum.
type edgeInput struct {
	from, to []int32
	q, c     []float64
}

func newEdgeInput(seed uint64) (*edgeInput, error) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6a6f6273))
	in := &edgeInput{from: g.EdgeFrom, to: g.EdgeTo, q: make([]float64, g.NumPoints), c: make([]float64, g.NumEdges())}
	for i := range in.q {
		in.q[i] = float64(rng.IntN(1000))
	}
	for i := range in.c {
		in.c[i] = float64(rng.IntN(64))
	}
	return in, nil
}

func (in *edgeInput) edges() int { return len(in.from) }

// size is the iteration count of a job of the given kind.
func (in *edgeInput) size(k jobKind) int {
	if k.coarse {
		return coarseSweeps * in.edges()
	}
	return in.edges()
}

// sum folds term(i) over [lo, hi) into acc.
func (in *edgeInput) sum(lo, hi int, acc float64) float64 {
	E := len(in.from)
	e, k := lo%E, float64(lo/E)
	for i := lo; i < hi; i++ {
		acc += in.q[in.from[e]]*in.c[e] - in.q[in.to[e]] + k
		if e++; e == E {
			e, k = 0, k+1
		}
	}
	return acc
}

// write stores term(i) into vals[i] and counts the visit in cnt[i] over
// [lo, hi).
func (in *edgeInput) write(lo, hi int, vals []float64, cnt []uint32) {
	E := len(in.from)
	e, k := lo%E, float64(lo/E)
	for i := lo; i < hi; i++ {
		vals[i] = in.q[in.from[e]]*in.c[e] - in.q[in.to[e]] + k
		cnt[i]++
		if e++; e == E {
			e, k = 0, k+1
		}
	}
}

// submitter is one closed-loop client of jobs-async with its seeded round
// and its output slice.
type submitter struct {
	round  []jobKind
	vals   []float64
	cnt    []uint32
	writes [2]int // write jobs that succeeded, fine and coarse
	// visited sums the lengths of the chunks the write jobs ran. The
	// per-index counts in cnt are plain increments, which two workers
	// running the same chunk at once can lose; this atomic total cannot.
	visited atomic.Int64
	rec     *recorder
	failed  int   // jobs that returned an error or a wrong reduction
	err     error // the first of them

	// Traced runs only: per-job times measured around the public calls and
	// read from Job.Trace.
	submit, wait, queue, runT []time.Duration
	workers                   int
}

// jobsAsync is the jobs-async workload: nproc goroutines submit a seeded mix
// of fine and coarse jobs through the public Pool's async API.
type jobsAsync struct {
	pool *loopsched.Pool
	in   *edgeInput
	want [2]float64 // expected reduction of a fine and a coarse job
	subs []*submitter
}

// newJobs builds the program state: the input, the Pool, and one job so the
// lazily created async runtime exists.
func newJobs(seed uint64, traced bool) (*jobsAsync, error) {
	in, err := newEdgeInput(seed)
	if err != nil {
		return nil, err
	}
	w := &jobsAsync{in: in, pool: loopsched.New(loopsched.Config{Trace: traced})}
	j := w.submitReduce(jobKind{})
	_, err = j.Result()
	j.Release()
	if err != nil {
		w.close()
		return nil, fmt.Errorf("jobs-async warm-up job: %w", err)
	}
	return w, nil
}

func (w *jobsAsync) close() { w.pool.Close() }

func (w *jobsAsync) submitReduce(k jobKind) *loopsched.Job {
	return w.pool.SubmitReduceOpts(w.in.size(k), loopsched.JobOptions{Commutative: true}, 0,
		func(a, b float64) float64 { return a + b },
		func(_, lo, hi int, acc float64) float64 { return w.in.sum(lo, hi, acc) })
}

// reference computes the expected reductions with the benchmark's own
// sequential fold, and gives each submitter its shuffled round.
func (w *jobsAsync) reference(o opts) error {
	w.want[0] = w.in.sum(0, w.in.size(jobKind{}), 0)
	w.want[1] = w.in.sum(0, w.in.size(jobKind{coarse: true}), 0)
	n := w.in.size(jobKind{coarse: true})
	for c := 0; c < clients(); c++ {
		s := &submitter{vals: make([]float64, n), cnt: make([]uint32, n)}
		for _, r := range jobRound {
			for i := 0; i < r.count; i++ {
				s.round = append(s.round, r.kind)
			}
		}
		rng := rand.New(rand.NewPCG(o.seed, uint64(c)))
		rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
		w.subs = append(w.subs, s)
	}
	return nil
}

// job runs one job of kind k for s: submit, wait, check, release.
func (w *jobsAsync) job(s *submitter, k jobKind, traced bool) error {
	start := time.Now()
	var j *loopsched.Job
	if k.write {
		j = w.pool.SubmitFor(w.in.size(k), func(_, lo, hi int) {
			s.visited.Add(int64(hi - lo))
			w.in.write(lo, hi, s.vals, s.cnt)
		})
	} else {
		j = w.submitReduce(k)
	}
	submitted := time.Now()
	v, err := j.Result()
	s.rec.add(start)
	if traced {
		s.submit = append(s.submit, submitted.Sub(start))
		s.wait = append(s.wait, time.Since(submitted))
		s.workers += j.Workers()
		q, r := traceTimes(j.Trace())
		s.queue, s.runT = append(s.queue, q), append(s.runT, r)
	}
	j.Release()
	if err != nil {
		return fmt.Errorf("jobs-async: job failed: %w", err)
	}
	if k.write {
		s.writes[b2i(k.coarse)]++
		return nil
	}
	return checkSum(v, w.want[b2i(k.coarse)])
}

// traceTimes returns a finished job's queue time (admitted to dispatched)
// and run time (dispatched to joined) from its lifecycle trace.
func traceTimes(jt *loopsched.JobTrace) (queue, run time.Duration) {
	var admitted, dispatched, joined int64
	for _, ev := range jt.Events() {
		switch ev.Type {
		case "admitted":
			admitted = ev.TimeUnixNano
		case "dispatched":
			dispatched = ev.TimeUnixNano
		case "joined":
			joined = ev.TimeUnixNano
		}
	}
	return time.Duration(dispatched - admitted), time.Duration(joined - dispatched)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run drives every submitter in whole rounds until the deadline.
func (w *jobsAsync) run(o opts, res *result) error {
	rtBefore := readRuntime()
	stBefore := w.pool.AsyncStats().Total
	t0 := time.Now()
	deadline := t0.Add(o.duration())
	var wg sync.WaitGroup
	recs := make([]*recorder, len(w.subs))
	for i, s := range w.subs {
		s.rec = newRecorder(t0, 1<<16)
		recs[i] = s.rec
	}
	cpu := startCPUSampler(t0, o.window())
	for _, s := range w.subs {
		wg.Add(1)
		go func(s *submitter) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, k := range s.round {
					if err := w.job(s, k, o.trace); err != nil {
						s.failed++
						s.err = cmp.Or(s.err, err)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	ph := summarise(recs, cpu.finish())
	res.attempted += ph.ops
	var firstErr error
	for _, s := range w.subs {
		res.failed += s.failed
		firstErr = cmp.Or(firstErr, s.err)
		// A submitter's write jobs are checked together on its output
		// slice, so a rejected slice fails every one of them.
		err := checkCoverage(s.cnt, s.visited.Load(), s.writes, w.in.edges())
		if err == nil {
			err = checkWrites(s.vals, s.cnt, w.in)
		}
		if err != nil {
			res.failed += s.writes[0] + s.writes[1]
			firstErr = cmp.Or(firstErr, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	res.phase(ph)
	if !o.trace {
		return nil
	}
	res.addRuntime(rtBefore, ph.ops)
	st := w.pool.AsyncStats().Total
	var submit, wait, queue, run []time.Duration
	workers := 0
	for _, s := range w.subs {
		submit, wait = append(submit, s.submit...), append(wait, s.wait...)
		queue, run = append(queue, s.queue...), append(run, s.runT...)
		workers += s.workers
	}
	kjobs := float64(ph.ops) / 1e3
	res.layer["trace.ops_per_s"] = ph.opsPerS
	res.dist("jobs.submit_us_p50", submit)
	res.dist("jobs.wait_us_p50", wait)
	res.dist("jobs.queue_us_p50", queue)
	res.dist("jobs.run_us_p50", run)
	res.layer["jobs.workers_per_job"] = float64(workers) / float64(ph.ops)
	res.layer["jobs.grown_per_kjob"] = float64(st.Grown-stBefore.Grown) / kjobs
	res.layer["jobs.peeled_per_kjob"] = float64(st.Peeled-stBefore.Peeled) / kjobs
	res.layer["pool.idle_cores"] = idleCores(idleProbe)
	return nil
}

// clients is the number of closed-loop clients: one per processor.
func clients() int { return runtime.GOMAXPROCS(0) }
