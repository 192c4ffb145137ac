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

func TestFairShareScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("fairshare scenario runs for a few hundred ms; skipped in -short")
	}
	rep, err := RunFairShareComparison(FairShareOptions{
		Workers: 2, Streams: 4, N: 512, Duration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fair.ItersA <= 0 || rep.Fair.ItersB <= 0 {
		t.Fatalf("policy run served no work: %+v", rep.Fair)
	}
	if rep.FIFO.ItersA <= 0 || rep.FIFO.ItersB <= 0 {
		t.Fatalf("FIFO run served no work: %+v", rep.FIFO)
	}
	if rep.Fair.Policy != "wfq" || rep.FIFO.Policy != "fifo" {
		t.Errorf("policies = %q, %q; want wfq, fifo", rep.Fair.Policy, rep.FIFO.Policy)
	}
	var buf bytes.Buffer
	if err := WriteFairShare(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty report")
	}
	// The JSON artifact round-trips with the stable field names benchcmp
	// compares (fair_share_error, high_prio_p95_speedup).
	path := filepath.Join(t.TempDir(), "BENCH_fairshare.json")
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
	for _, key := range []string{"target_ratio", "fair", "fifo", "fair_share_error", "high_prio_p95_speedup"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("artifact missing %q:\n%s", key, data)
		}
	}
}

func TestFairShareAcceptance(t *testing.T) {
	// The ISSUE 5 acceptance criterion: under saturation with two tenants
	// at 3:1 weights, the achieved served-work ratio must be within 15% of
	// 3.0 and the high-priority p95 completion latency at least 2x lower
	// than the FIFO baseline. Asserted only with BENCH_STRICT=1 on an
	// 8+ core machine (small or shared boxes starve the load generators and
	// measure scheduler-independent noise); report-only otherwise.
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the 3:1-within-15% and 2x high-prio criteria (needs a quiet 8+ core machine)")
	}
	if runtime.GOMAXPROCS(0) < 8 {
		t.Skipf("GOMAXPROCS = %d < 8: the saturation regime needs headroom for the load generators", runtime.GOMAXPROCS(0))
	}
	rep, err := RunFairShareComparison(FairShareOptions{Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("share ratio %.3f (target %.1f, error %.1f%%); FIFO ratio %.3f; hp p95 %.3fms vs FIFO %.3fms (%.2fx); preempted %d",
		rep.Fair.ShareRatio, rep.TargetRatio, rep.FairShareError*100, rep.FIFO.ShareRatio,
		rep.Fair.HighPrioP95*1e3, rep.FIFO.HighPrioP95*1e3, rep.HighPrioP95Speedup, rep.Fair.Preempted)
	if rep.FairShareError > 0.15 {
		t.Errorf("achieved share ratio %.3f deviates %.1f%% from the 3:1 target, want <= 15%%",
			rep.Fair.ShareRatio, rep.FairShareError*100)
	}
	if rep.HighPrioP95Speedup < 2 {
		t.Errorf("high-priority p95 only %.2fx lower than FIFO, want >= 2x", rep.HighPrioP95Speedup)
	}
}
