package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func init() {
	// The harness tests create and destroy many small teams; locking every
	// worker to an OS thread is unnecessary there.
	LockThreads = false
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, name := range names {
		s, err := NewScheduler(name, 2)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", name, err)
		}
		var total atomic.Int64
		s.For(100, func(w, b, e int) { total.Add(int64(e - b)) })
		if total.Load() != 100 {
			t.Errorf("%s covered %d of 100 iterations", name, total.Load())
		}
		s.Close()
	}
	if _, err := NewScheduler("no-such-runtime", 2); err == nil {
		t.Errorf("unknown scheduler accepted")
	}
}

func TestTable1SchedulersAreRegistered(t *testing.T) {
	for _, name := range Table1Schedulers() {
		if _, ok := registry[name]; !ok {
			t.Errorf("Table 1 row %q is not in the registry", name)
		}
		if _, ok := PaperBurdens[name]; !ok {
			t.Errorf("Table 1 row %q has no paper burden recorded", name)
		}
	}
	if len(Table1Schedulers()) != 6 {
		t.Errorf("Table 1 must have 6 rows")
	}
}

func TestDefaultThreadCounts(t *testing.T) {
	got := DefaultThreadCounts(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("DefaultThreadCounts(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultThreadCounts(8) = %v", got)
		}
	}
	got = DefaultThreadCounts(12)
	if got[len(got)-1] != 12 {
		t.Errorf("machine size missing from %v", got)
	}
	if got := DefaultThreadCounts(0); len(got) == 0 {
		t.Errorf("empty counts for default machine")
	}
}

func TestMeasureBurdenSmall(t *testing.T) {
	opt := BurdenOptions{
		Workers:    4,
		Iterations: 512,
		MinTotal:   10 * time.Microsecond,
		MaxTotal:   400 * time.Microsecond,
		Points:     5,
		Reps:       1,
	}
	res, err := MeasureBurden("fine-grain-tree", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "fine-grain-tree" || len(res.Sweep) < 3 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Fit.D < 0 {
		t.Errorf("negative burden %v", res.Fit.D)
	}
	if res.BurdenUs() != res.Fit.D*1e6 {
		t.Errorf("BurdenUs inconsistent")
	}
	if res.PaperBurdenUs != 5.67 {
		t.Errorf("paper burden not attached: %v", res.PaperBurdenUs)
	}
	var buf bytes.Buffer
	if err := WriteSweep(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fine-grain-tree") {
		t.Errorf("sweep report missing scheduler name")
	}
}

func TestMeasureBurdenUnknownScheduler(t *testing.T) {
	if _, err := MeasureBurden("bogus", BurdenOptions{}); err == nil {
		t.Errorf("unknown scheduler accepted")
	}
}

func TestWriteTable1(t *testing.T) {
	rows := []BurdenResult{
		{Scheduler: "fine-grain-tree", Workers: 48, PaperBurdenUs: 5.67},
		{Scheduler: "openmp-static", Workers: 48, PaperBurdenUs: 8.12},
		{Scheduler: "cilk", Workers: 48, PaperBurdenUs: 68.8},
	}
	rows[0].Fit.D, rows[0].Fit.P = 6e-6, 48
	rows[1].Fit.D, rows[1].Fit.P = 10e-6, 48
	rows[2].Fit.D, rows[2].Fit.P = 70e-6, 48
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "fine-grain-tree", "openmp-static", "cilk", "paper: 43%", "paper: 12.1x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 report missing %q:\n%s", want, out)
		}
	}
	md := Table1Markdown(rows)
	if !strings.Contains(md, "| fine-grain-tree |") {
		t.Errorf("markdown table malformed:\n%s", md)
	}
}

func TestRunMPDATASmall(t *testing.T) {
	opt := MPDATAOptions{
		Steps:        3,
		Reps:         1,
		ThreadCounts: []int{1, 2},
		Rows:         10,
		Cols:         10,
		Schedulers:   []string{"fine-grain-tree", "openmp-static"},
	}
	res, err := RunMPDATA(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.GridPoints != 100 || len(res.Series) != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s has %d points", s.Scheduler, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Seconds <= 0 || p.Speedup <= 0 {
				t.Errorf("series %s: bad point %+v", s.Scheduler, p)
			}
		}
	}
	if len(res.Ratio) != 2 {
		t.Errorf("ratio series has %d points", len(res.Ratio))
	}
	var buf bytes.Buffer
	if err := WriteMPDATA(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Errorf("missing Figure 2 header")
	}
}

func TestVerifyMPDATA(t *testing.T) {
	maxDiff, massErr, err := VerifyMPDATA("fine-grain-tree", 3)
	if err != nil {
		t.Fatal(err)
	}
	if maxDiff > 1e-12 {
		t.Errorf("parallel MPDATA diverges from sequential by %v", maxDiff)
	}
	if massErr > 1e-12 {
		t.Errorf("mass error %v", massErr)
	}
}

func TestLoopDuration(t *testing.T) {
	d, err := LoopDuration("fine-grain-tree", 2)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("loop duration %v", d)
	}
}

func TestRunLinregSmall(t *testing.T) {
	opt := LinregOptions{
		Points:       1 << 16,
		Reps:         1,
		ThreadCounts: []int{1, 2},
		Baseline:     "cilk",
		FineGrain:    "fine-grain-tree",
	}
	res, err := RunLinreg(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baseline.Points) != 2 || len(res.FineGrain.Points) != 2 {
		t.Fatalf("unexpected series lengths: %+v", res)
	}
	if res.BestSpeedupOverBaseline <= 0 {
		t.Errorf("best speedup ratio %v", res.BestSpeedupOverBaseline)
	}
	if res.Fit.Slope == 0 {
		t.Errorf("regression fit missing")
	}
	var buf bytes.Buffer
	if err := WriteLinreg(&buf, res, "a"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 3a") {
		t.Errorf("missing Figure 3a header")
	}
}

func TestVerifyLinreg(t *testing.T) {
	for _, name := range []string{"fine-grain-tree", "openmp-static", "cilk"} {
		rel, err := VerifyLinreg(name, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		if rel > 1e-9 {
			t.Errorf("%s: relative error %v", name, rel)
		}
	}
}

func TestRunMultitenantSmall(t *testing.T) {
	opt := MultitenantOptions{
		Workers:       4,
		Tenants:       8,
		JobsPerTenant: 5,
		Workload:      "sum",
		Params:        JobParams{N: 1000},
	}
	res, err := RunMultitenant(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsTotal != 40 || res.Workload != "sum" {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.WallSeconds <= 0 || res.JobsPerSecond <= 0 || res.IterationsPerSecond <= 0 {
		t.Errorf("non-positive throughput: %+v", res)
	}
	if res.Stats.Completed != 40 {
		t.Errorf("completed = %d, want 40", res.Stats.Completed)
	}
	if res.Stats.IterationsDone != 40*1000 {
		t.Errorf("iterations = %d", res.Stats.IterationsDone)
	}
	var buf bytes.Buffer
	if err := WriteMultitenant(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Multi-tenant", "jobs/s", "lat p99"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("multitenant report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestBurstElasticBeatsRigidP95(t *testing.T) {
	// The convoy acceptance criterion: on the burst-after-big-job scenario,
	// elastic sub-teams must yield lower burst p95 latency than the rigid
	// (pre-elastic) scheduler, with reduction results still exact (RunBurst
	// verifies every burst job's closed-form sum). Timing comparisons are
	// retried a few times to ride out noisy CI machines; the gap is
	// structural (a full static block vs one chunk), so a genuine regression
	// fails every attempt.
	if testing.Short() {
		t.Skip("timing comparison; run without -short (tier-1)")
	}
	opt := BurstOptions{Workers: 4, BigN: 8192, BurstJobs: 8, BurstN: 256, IterNs: 4000}
	var lastElastic, lastRigid BurstResult
	for attempt := 0; attempt < 3; attempt++ {
		elastic, rigid, err := RunBurstComparison(opt)
		if err != nil {
			t.Fatal(err)
		}
		lastElastic, lastRigid = elastic, rigid
		// An attempt counts only when the p95 improved AND the sub-teams
		// visibly resized: which elastic mechanism serves the burst depends
		// on the machine's scheduling (workers peel off the big job, or
		// idle workers grow onto the under-provisioned tenants), and on a
		// badly oversubscribed box the big job can occasionally finish
		// before the burst even lands — retry those runs.
		if elastic.BurstP95 < rigid.BurstP95 && elastic.Peeled+elastic.Grown >= 1 {
			var buf bytes.Buffer
			if err := WriteBurst(&buf, elastic, rigid); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"convoy", "rigid", "elastic"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("burst report missing %q:\n%s", want, buf.String())
				}
			}
			return
		}
		t.Logf("attempt %d: elastic p95 %.3fms (grown %d, peeled %d) vs rigid p95 %.3fms; retrying",
			attempt, elastic.BurstP95*1e3, elastic.Grown, elastic.Peeled, rigid.BurstP95*1e3)
	}
	t.Fatalf("elastic burst p95 %.3fms did not beat rigid %.3fms (with a visible resize) in 3 attempts",
		lastElastic.BurstP95*1e3, lastRigid.BurstP95*1e3)
}

func TestSkewComparisonRuns(t *testing.T) {
	elastic, rigid, err := RunSkewComparison(SkewOptions{Workers: 4, N: 2048, Jobs: 2, IterNs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if elastic.MeanSeconds <= 0 || rigid.MeanSeconds <= 0 {
		t.Fatalf("non-positive run times: elastic %+v rigid %+v", elastic, rigid)
	}
	var buf bytes.Buffer
	if err := WriteSkew(&buf, elastic, rigid); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "straggler") {
		t.Errorf("skew report:\n%s", buf.String())
	}
}

func TestCalibratedWorkloadCache(t *testing.T) {
	// Building the same workload twice must reuse the calibrated work: the
	// serving daemon builds one request per HTTP job.
	a := calibrated(123)
	b := calibrated(123)
	if a != b {
		t.Errorf("calibrated(123) not cached: %+v vs %+v", a, b)
	}
	if a.UnitsPerIter < 1 || a.NsPerIter <= 0 {
		t.Errorf("implausible calibration: %+v", a)
	}
}

func TestJobWorkloadRegistry(t *testing.T) {
	names := JobWorkloads()
	if len(names) < 3 {
		t.Fatalf("job workload registry too small: %v", names)
	}
	for _, name := range names {
		req, err := NewJobRequest(name, JobParams{N: 100})
		if err != nil {
			t.Fatalf("NewJobRequest(%q): %v", name, err)
		}
		if req.N != 100 {
			t.Errorf("%s: N = %d", name, req.N)
		}
		if req.Body == nil && req.RBody == nil {
			t.Errorf("%s: request has no body", name)
		}
	}
	if _, err := NewJobRequest("no-such-workload", JobParams{}); err == nil {
		t.Errorf("unknown workload accepted")
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 14 {
		t.Fatalf("scenario registry: %v", names)
	}
	for _, want := range []string{"table1", "mpdata", "linreg", "ablation", "multitenant", "burst", "skew", "shardburst", "pipeline", "fairshare", "traceoverhead", "submitpath", "overload", "checkpoint"} {
		if _, ok := scenarios[want]; !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
	if _, err := RunScenario("bogus", &bytes.Buffer{}, false); err == nil {
		t.Errorf("unknown scenario accepted")
	}
	// The multitenant scenario is cheap enough to smoke-run here.
	var buf bytes.Buffer
	rep, err := RunScenario("multitenant", &buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.(MultitenantResult); !ok {
		t.Errorf("multitenant scenario returned %T, want MultitenantResult", rep)
	}
	if !strings.Contains(buf.String(), "Multi-tenant") {
		t.Errorf("scenario report:\n%s", buf.String())
	}
}

func TestRunAblationSmall(t *testing.T) {
	opt := AblationOptions{Workers: 2, LoopIters: 64, IterNs: 50, Loops: 10, Reps: 1, Fanouts: []int{2}}
	rows, err := RunAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 4 base variants + 1 fan-out
		t.Fatalf("got %d ablation rows", len(rows))
	}
	for _, r := range rows {
		if r.LoopUs <= 0 || r.ReduceLoopUs <= 0 {
			t.Errorf("row %q has non-positive measurements: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	if err := WriteAblation(&buf, rows, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Errorf("missing ablation header")
	}
	if Elapsed(time.Now()) == "" {
		t.Errorf("Elapsed returned empty string")
	}
}

func TestRunShardBurstSmall(t *testing.T) {
	rep, err := RunShardBurstComparison(ShardBurstOptions{
		Workers: 4, Shards: 2, Tenants: 4, JobsPerTenant: 6, N: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Single.Shards != 1 || rep.Sharded.Shards != 2 {
		t.Fatalf("shard counts: single %d, sharded %d", rep.Single.Shards, rep.Sharded.Shards)
	}
	for _, r := range []ShardBurstResult{rep.Single, rep.Sharded} {
		if r.JobsTotal != 24 || r.Workers != 4 {
			t.Errorf("unexpected result shape: %+v", r)
		}
		if r.WallSeconds <= 0 || r.JobsPerSecond <= 0 || r.IterationsPerSecond <= 0 {
			t.Errorf("non-positive throughput: %+v", r)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("implausible latency quantiles: %+v", r)
		}
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup = %v", rep.Speedup)
	}
	var buf bytes.Buffer
	if err := WriteShardBurst(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Sharded-pool", "jobs/s", "stolen", "throughput"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("shardburst report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestShardBurstJSONRoundTrip(t *testing.T) {
	// The machine-readable artifact must serialise with stable field names
	// and parse back: CI archives BENCH_shardburst.json per run to track the
	// perf trajectory.
	rep, err := RunShardBurstComparison(ShardBurstOptions{
		Workers: 2, Shards: 2, Tenants: 2, JobsPerTenant: 4, N: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_shardburst.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardBurstReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, data)
	}
	if back.Sharded.JobsPerSecond != rep.Sharded.JobsPerSecond || back.Workers != rep.Workers {
		t.Errorf("round trip changed the report: %+v vs %+v", back, rep)
	}
	for _, want := range []string{"throughput_speedup", "latency_p95_seconds", "jobs_per_second", "stolen_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("artifact missing stable field %q:\n%s", want, data)
		}
	}
}

func TestShardBurstAcceptance(t *testing.T) {
	// The PR acceptance criterion — n-shard aggregate throughput >= 1.5x the
	// 1-shard configuration — holds in the dispatcher-bound regime on
	// machines with enough parallelism. It is asserted only when
	// BENCH_STRICT=1 (set on capable CI runners): on small or
	// oversubscribed boxes the single dispatcher is not the bottleneck and
	// the ratio is noise.
	if testing.Short() {
		t.Skip("timing comparison; run without -short")
	}
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the 1.5x throughput criterion (needs a dedicated 8+ core machine)")
	}
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("only %d procs; the criterion is defined for 8+ core runners", runtime.GOMAXPROCS(0))
	}
	var best float64
	for attempt := 0; attempt < 3; attempt++ {
		rep, err := RunShardBurstComparison(ShardBurstOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Speedup > best {
			best = rep.Speedup
		}
		if best >= 1.5 {
			t.Logf("sharded throughput %.2fx single-shard (stolen %d, lent %d)",
				rep.Speedup, rep.Sharded.Stolen, rep.Sharded.Lent)
			return
		}
	}
	t.Fatalf("sharded throughput only %.2fx single-shard, want >= 1.5x", best)
}
