package jobs

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/spin"
	"loopsched/internal/stats"
)

func TestMain(m *testing.M) {
	// Sub-team join waves spin; on small or oversubscribed test machines the
	// production thresholds (tuned for dedicated pinned workers) waste
	// milliseconds per wait. Shrink them; the logic under test is unchanged.
	spin.ActiveSpins = 1 << 6
	spin.YieldThreshold = 1 << 8
	os.Exit(m.Run())
}

// testScheduler builds a scheduler with the given worker count, bounded for
// the machine, and closes it at cleanup.
func testScheduler(t *testing.T, workers int, cfg Config) *Scheduler {
	t.Helper()
	cfg.Workers = workers
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestSingleJobMatchesSynchronousForEach(t *testing.T) {
	// A single submitted job must produce bit-for-bit the result of the
	// synchronous ForEach: each index is written exactly once with a value
	// that depends only on the index, whatever sub-team size the job was
	// molded onto.
	for _, workers := range []int{1, 2, 4} {
		s := testScheduler(t, workers, Config{})
		n := 10007
		f := func(i int) float64 { return math.Sin(float64(i)) * 1e3 }

		want := make([]float64, n)
		for i := 0; i < n; i++ { // the synchronous oracle
			want[i] = f(i)
		}

		got := make([]float64, n)
		j, err := s.Submit(Request{N: n, Body: func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = f(i)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: index %d = %x, want %x", workers, i, got[i], want[i])
			}
		}
		if j.State() != Done {
			t.Errorf("state = %v, want done", j.State())
		}
		if k := j.Workers(); k < 1 || k > workers {
			t.Errorf("job ran on %d workers, want 1..%d", k, workers)
		}
	}
}

func TestConcurrentSubmitFromManyGoroutines(t *testing.T) {
	s := testScheduler(t, 4, Config{})
	const (
		submitters = 16
		jobsEach   = 25
		n          = 500
	)
	var total atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				j, err := s.Submit(Request{N: n, Body: func(w, lo, hi int) {
					total.Add(int64(hi - lo))
				}})
				if err != nil {
					errs <- err
					return
				}
				if _, err := j.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := total.Load(), int64(submitters*jobsEach*n); got != want {
		t.Fatalf("covered %d iterations, want %d", got, want)
	}
	st := s.Stats()
	if st.Completed != submitters*jobsEach {
		t.Errorf("completed = %d, want %d", st.Completed, submitters*jobsEach)
	}
	if st.IterationsDone != int64(submitters*jobsEach*n) {
		t.Errorf("iterations = %d", st.IterationsDone)
	}
}

func TestConcurrentReduceJobs(t *testing.T) {
	s := testScheduler(t, 4, Config{})
	const jobs = 24
	var wg sync.WaitGroup
	results := make([]float64, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1000 + g
			j, err := s.Submit(Request{
				N:       n,
				Combine: func(a, b float64) float64 { return a + b },
				RBody: func(w, lo, hi int, acc float64) float64 {
					for i := lo; i < hi; i++ {
						acc += float64(i)
					}
					return acc
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			v, err := j.Wait()
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	for g := 0; g < jobs; g++ {
		n := 1000 + g
		if want := float64(n) * float64(n-1) / 2; results[g] != want {
			t.Errorf("job %d: sum = %v, want %v", g, results[g], want)
		}
	}
}

func TestReduceOrderAcrossSubTeam(t *testing.T) {
	// The join wave folds partials in sub-worker order, so the "last"
	// non-commutative fold must see the final block's value — same contract
	// as the single-tenant scheduler.
	s := testScheduler(t, 4, Config{})
	n := 97
	j, err := s.Submit(Request{
		N:        n,
		Identity: -1,
		Combine:  func(a, b float64) float64 { return b },
		RBody:    func(w, lo, hi int, acc float64) float64 { return float64(hi) },
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(n) {
		t.Fatalf("'last' fold = %v, want %v (join-wave order violated)", got, float64(n))
	}
}

func TestCancelBeforeStart(t *testing.T) {
	s := testScheduler(t, 1, Config{})
	release := make(chan struct{})
	blocker, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker is held by the blocker; a second job is popped by the
	// dispatcher and parked waiting for a worker, so a *third* job is
	// guaranteed to still be queued and cancellable.
	parked, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {
		t.Error("canceled job body ran")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !victim.Cancel() {
		t.Fatal("Cancel returned false for a queued job")
	}
	if victim.Cancel() {
		t.Error("second Cancel returned true")
	}
	if _, err := victim.Wait(); err != ErrCanceled {
		t.Errorf("Wait after cancel = %v, want ErrCanceled", err)
	}
	if victim.State() != Canceled {
		t.Errorf("state = %v, want canceled", victim.State())
	}
	close(release)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := parked.Wait(); err != nil {
		t.Fatal(err)
	}
	// A completed job cannot be canceled.
	if blocker.Cancel() {
		t.Error("Cancel succeeded on a completed job")
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("stats canceled = %d, want 1", st.Canceled)
	}
}

func TestWorkerPartitionCorrectness(t *testing.T) {
	// Under -race: concurrent elastic jobs record every (sub, lo, hi) chunk
	// they execute; each job's chunks must tile [0, n) exactly — disjoint,
	// complete, with dense sub-worker ids.
	s := testScheduler(t, 4, Config{})
	const jobs = 12
	type share struct{ sub, lo, hi int }
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 256 + 37*g
			var mu sync.Mutex
			var shares []share
			j, err := s.Submit(Request{N: n, Body: func(w, lo, hi int) {
				mu.Lock()
				shares = append(shares, share{w, lo, hi})
				mu.Unlock()
			}})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := j.Wait(); err != nil {
				t.Error(err)
				return
			}
			k := j.Workers()
			if k < 1 || k > s.P() {
				t.Errorf("job %d: peak sub-team %d workers", g, k)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			sort.Slice(shares, func(a, b int) bool { return shares[a].lo < shares[b].lo })
			next := 0
			for _, sh := range shares {
				if sh.sub < 0 || sh.sub >= s.P() {
					t.Errorf("job %d: sub-worker %d out of range [0,%d)", g, sh.sub, s.P())
				}
				if sh.lo != next || sh.hi <= sh.lo {
					t.Errorf("job %d: chunk [%d,%d) does not continue tiling at %d", g, sh.lo, sh.hi, next)
					return
				}
				next = sh.hi
			}
			if next != n {
				t.Errorf("job %d: covered [0,%d) of [0,%d)", g, next, n)
			}
		}(g)
	}
	wg.Wait()
}

func TestMoldableTeamSize(t *testing.T) {
	s := testScheduler(t, 8, Config{Workers: 8})
	if s.P() != 8 {
		t.Skipf("machine rejected 8 workers")
	}
	j := func(req Request) *Job { return &Job{req: req} }
	cases := []struct {
		name    string
		req     Request
		waiting int
		want    int
	}{
		{"lone job gets the team", Request{N: 1 << 20}, 0, 8},
		{"fair share under pressure", Request{N: 1 << 20}, 3, 2},
		{"deep queue degrades to 1", Request{N: 1 << 20}, 16, 1},
		{"per-job cap", Request{N: 1 << 20, MaxWorkers: 3}, 0, 3},
		{"small job bounded by size", Request{N: 5}, 0, 5},
		{"grain floor", Request{N: 1024, Grain: 512}, 0, 2},
	}
	for _, c := range cases {
		if got := s.teamSize(j(c.req), c.waiting); got != c.want {
			t.Errorf("%s: teamSize = %d, want %d", c.name, got, c.want)
		}
	}
	capped := New(Config{Workers: 8, MaxWorkersPerJob: 2})
	defer capped.Close()
	if got := capped.teamSize(j(Request{N: 1 << 20}), 0); got != 2 {
		t.Errorf("scheduler-wide cap: teamSize = %d, want 2", got)
	}
}

func TestEmptyAndInvalidRequests(t *testing.T) {
	s := testScheduler(t, 2, Config{})
	j, err := s.Submit(Request{N: 0, Body: func(w, lo, hi int) { t.Error("body ran") }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Errorf("empty job: %v", err)
	}
	j, err = s.Submit(Request{N: -3, Identity: 7, Combine: func(a, b float64) float64 { return a + b },
		RBody: func(w, lo, hi int, acc float64) float64 { return acc + 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j.Wait(); err != nil || v != 7 {
		t.Errorf("empty reduce = %v, %v; want identity 7", v, err)
	}
	for _, req := range []Request{
		{N: 10},
		{N: 10, Body: func(w, lo, hi int) {}, RBody: func(w, lo, hi int, acc float64) float64 { return acc }},
		{N: 10, RBody: func(w, lo, hi int, acc float64) float64 { return acc }},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("invalid request %+v accepted", req)
		}
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s := New(Config{Workers: 2})
	const jobs = 50
	var done atomic.Int64
	handles := make([]*Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(Request{N: 100, Body: func(w, lo, hi int) { done.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, j)
	}
	s.Close()
	for i, j := range handles {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("job %d after Close: %v", i, err)
		}
	}
	if _, err := s.Submit(Request{N: 1, Body: func(w, lo, hi int) {}}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestStatsLatencyPercentiles(t *testing.T) {
	s := testScheduler(t, 2, Config{})
	// Three windows' worth of completions: the latency window then holds
	// 1024 to 2047 of them and the tenant's SLO window 256 to 511.
	const n = 3 * latencyWindow
	for i := 0; i < n; i++ {
		j, err := s.Submit(Request{N: 64, Body: func(w, lo, hi int) {
			if i%256 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LatencySamples < latencyWindow || st.LatencySamples >= 2*latencyWindow {
		t.Errorf("samples = %d, want [%d, %d)", st.LatencySamples, latencyWindow, 2*latencyWindow)
	}
	if w := st.Tenants["default"].SLO.WindowJobs; w < sloWindow || w >= 2*sloWindow {
		t.Errorf("SLO window = %d jobs, want [%d, %d)", w, sloWindow, 2*sloWindow)
	}
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Errorf("implausible percentiles: p50=%v p99=%v", st.LatencyP50, st.LatencyP99)
	}
	if st.RunP50 <= 0 || st.RunP50 > st.LatencyP50 {
		t.Errorf("run p50 %v should be positive and <= total p50 %v", st.RunP50, st.LatencyP50)
	}
	if st.Workers != 2 || st.Submitted != n || st.Completed != n || st.Latency.Count() != n {
		t.Errorf("counters: %+v", st)
	}
}

// TestStatsQuantilesWithinRelErr feeds known latencies through a
// scheduler's and a tenant's windows and checks every quantile /stats
// reports against the exact quantile of the completions in its window.
func TestStatsQuantilesWithinRelErr(t *testing.T) {
	s := testScheduler(t, 1, Config{})
	acct := s.fq.account("t")
	rng := rand.New(rand.NewSource(1))
	var lat, run []float64
	for i := 0; i < 2*latencyWindow+300; i++ {
		r := time.Duration(math.Exp(rng.Float64() * math.Log(1e9)))
		l := r + time.Duration(rng.Int63n(int64(time.Millisecond)))
		recordLedger(&s.led, l, r, false, false)
		recordLedger(&acct.led, l-r, r, i%3 == 0, i%9 == 0)
		lat, run = append(lat, float64(l)), append(run, float64(r))
	}
	st := s.Stats()
	ts := st.Tenants["t"]
	tail := func(xs []float64, k int) []float64 { return xs[len(xs)-k:] }
	k, kt := st.LatencySamples, ts.SLO.WindowJobs
	var wait []float64
	for i := range lat {
		wait = append(wait, lat[i]-run[i])
	}
	check := func(what string, xs []float64, got ...time.Duration) {
		for i, want := range stats.Quantiles(xs, 0.5, 0.95, 0.99) {
			if d := math.Abs(float64(got[i]) - want); d > stats.RelErr*want+1 {
				t.Errorf("%s quantile %d: %v, exact %v", what, i, got[i], time.Duration(want))
			}
		}
	}
	check("latency", tail(lat, k), st.LatencyP50, st.LatencyP95, st.LatencyP99)
	check("run", tail(run, k), st.RunP50, st.RunP95, st.RunP99)
	secs := func(x float64) time.Duration { return time.Duration(x * 1e9) }
	slo := ts.SLO
	check("tenant wait", tail(wait, kt), secs(slo.WaitP50), secs(slo.WaitP95), secs(slo.WaitP99))
	check("tenant run", tail(run, kt), secs(slo.RunP50), secs(slo.RunP95), secs(slo.RunP99))
	if k != latencyWindow+300 || kt != sloWindow+(2*latencyWindow+300)%sloWindow {
		t.Errorf("windows = %d / %d jobs", k, kt)
	}
	hits, misses := 0, 0
	for i := 2*latencyWindow + 300 - kt; i < 2*latencyWindow+300; i++ {
		switch {
		case i%9 == 0:
			misses++
		case i%3 == 0:
			hits++
		}
	}
	if slo.DeadlineJobs != hits+misses || slo.DeadlineHits != hits {
		t.Errorf("SLO deadline jobs/hits = %d/%d, want %d/%d", slo.DeadlineJobs, slo.DeadlineHits, hits+misses, hits)
	}
}

func TestManyTenantsSaturateWithoutRaces(t *testing.T) {
	// The acceptance shape: many tenants hammer one shared team; every job's
	// result must be correct and the queue must drain.
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	s := testScheduler(t, p, Config{QueueDepth: 8}) // small queue: exercises backpressure
	const tenants = 8
	var wg sync.WaitGroup
	for tnt := 0; tnt < tenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := 200 + 13*tnt + i
				j, err := s.Submit(Request{
					N:       n,
					Combine: func(a, b float64) float64 { return a + b },
					RBody: func(w, lo, hi int, acc float64) float64 {
						return acc + float64(hi-lo)
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v, err := j.Wait(); err != nil || v != float64(n) {
					t.Errorf("tenant %d job %d: got %v, %v", tnt, i, v, err)
					return
				}
			}
		}(tnt)
	}
	wg.Wait()
	if st := s.Stats(); st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("queue not drained: %+v", st)
	}
}
