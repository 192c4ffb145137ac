package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestOverloadScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("overload scenario runs for over a second; skipped in -short")
	}
	rep, err := RunOverload(OverloadOptions{
		Workers: 2, Streams: 2, N: 512, Duration: 120 * time.Millisecond, Reps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Completed <= 0 || rep.Overload.Completed <= 0 {
		t.Fatalf("phases served no work: baseline %+v overload %+v", rep.Baseline, rep.Overload)
	}
	if rep.Breaker.GoodJobsIsolated <= 0 || rep.Breaker.GoodJobsMixed <= 0 {
		t.Fatalf("breaker phases served no good-tenant work: %+v", rep.Breaker)
	}
	// The infeasible probes are the heart of the admitted-to-miss check:
	// with shedding armed and a warm run-time estimate, not one may be
	// admitted — regardless of machine speed.
	if rep.Overload.InfeasibleProbes <= 0 {
		t.Error("overload phase submitted no infeasible probes")
	}
	if rep.Overload.InfeasibleAdmits != 0 {
		t.Errorf("%d/%d infeasible probes were admitted, want 0",
			rep.Overload.InfeasibleAdmits, rep.Overload.InfeasibleProbes)
	}
	var buf bytes.Buffer
	if err := WriteOverload(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty report")
	}
	// The JSON artifact round-trips with the stable field names benchcmp
	// compares (goodput_ratio, the per-phase goodput, the breaker ratio).
	path := filepath.Join(t.TempDir(), "BENCH_overload.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"baseline", "overload", "breaker", "goodput_ratio"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("artifact missing %q:\n%s", key, data)
		}
	}
}

func TestOverloadAcceptance(t *testing.T) {
	// The acceptance criteria: under 2x offered load with shedding armed,
	// (a) goodput stays >= 0.9x the single-capacity baseline, (b) no
	// submission blocks meaningfully past MaxWait, (c) zero infeasible
	// jobs are admitted only to miss, and (d) a well-behaved tenant behind
	// an abusive tenant's open breaker keeps >= 0.9x its isolated p99.
	// Asserted only with BENCH_STRICT=1 on a quiet multi-core machine
	// (tail latencies on a 1-2 core box measure OS scheduling, not the
	// admission policy); report-only otherwise.
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the goodput/bounded-wait/breaker-isolation criteria (needs a quiet multi-core machine)")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS = %d < 4: the overload regime needs headroom for the load generators", runtime.GOMAXPROCS(0))
	}
	opt := OverloadOptions{Duration: time.Second, Reps: 5}
	rep, err := RunOverload(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("goodput %.0f -> %.0f jobs/s (ratio %.2f); overload shed %.1f%%, max submit wait %.2fms; breaker p99 %.3fms iso vs %.3fms mixed (ratio %.2f), abusive shed %d",
		rep.Baseline.GoodputJobsPerSecond, rep.Overload.GoodputJobsPerSecond, rep.GoodputRatio,
		rep.Overload.ShedFraction*100, rep.Overload.MaxSubmitWaitSeconds*1e3,
		rep.Breaker.IsolatedP99Seconds*1e3, rep.Breaker.MixedP99Seconds*1e3,
		rep.Breaker.GoodP99Ratio, rep.Breaker.AbusiveShed)
	if rep.GoodputRatio < 0.9 {
		t.Errorf("goodput at 2x offered load is %.2fx baseline, want >= 0.9x", rep.GoodputRatio)
	}
	// MaxWait plus generous scheduler jitter: the bound is about not
	// parking handlers for seconds, not about microsecond precision.
	maxWait := time.Duration(rep.Overload.MaxSubmitWaitSeconds * float64(time.Second))
	if limit := time.Duration(rep.MaxWaitSeconds*float64(time.Second)) + 100*time.Millisecond; maxWait > limit {
		t.Errorf("a Submit blocked %v, want <= MaxWait + jitter (%v)", maxWait, limit)
	}
	if rep.Overload.InfeasibleAdmits != 0 {
		t.Errorf("%d infeasible jobs admitted only to miss, want 0", rep.Overload.InfeasibleAdmits)
	}
	if !rep.Breaker.BreakerOpened {
		t.Error("the abusive tenant's breaker never opened")
	}
	if rep.Breaker.GoodP99Ratio < 0.9 {
		t.Errorf("well-behaved tenant kept only %.2fx of its isolated p99 behind the open breaker, want >= 0.9x",
			rep.Breaker.GoodP99Ratio)
	}
}
