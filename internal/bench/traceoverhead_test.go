package bench

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestTraceOverheadSmoke verifies the comparison machinery on a tiny
// configuration: both scenarios run in both configurations, the traced runs
// emit events, and the report is internally consistent. The overhead budget
// itself is asserted separately under BENCH_STRICT.
func TestTraceOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke test")
	}
	opt := TraceOverheadOptions{
		Reps:       1,
		FairShare:  FairShareOptions{Workers: 2, Streams: 2, Duration: 80 * time.Millisecond, N: 512},
		ShardBurst: ShardBurstOptions{Workers: 2, Shards: 2, Tenants: 4, JobsPerTenant: 5, N: 256},
	}
	rep, err := RunTraceOverhead(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("%d scenarios, want 2", len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.OffJobsPerSecond <= 0 || sc.OnJobsPerSecond <= 0 {
			t.Errorf("%s: zero throughput (off=%g on=%g)", sc.Name, sc.OffJobsPerSecond, sc.OnJobsPerSecond)
		}
		if sc.EventsTotal == 0 {
			t.Errorf("%s: traced runs emitted no events", sc.Name)
		}
		if rep.MaxOverheadFraction < sc.OverheadFraction {
			t.Errorf("max overhead %g below %s's %g", rep.MaxOverheadFraction, sc.Name, sc.OverheadFraction)
		}
	}
	if err := WriteTraceOverhead(io.Discard, rep); err != nil {
		t.Fatal(err)
	}
}

// TestTraceOverheadBudget is the acceptance criterion: with tracing on and a
// live subscriber draining the feed, both scenarios stay within 5% of their
// untraced throughput. Asserted only with BENCH_STRICT=1 (set on capable CI
// runners): on small or loaded machines the ratio is dominated by noise.
func TestTraceOverheadBudget(t *testing.T) {
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the <=5% tracing-overhead criterion (needs a quiet multi-core machine)")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS = %d < 4: below that the traced/untraced ratio swings well past the 5%% budget run to run", runtime.GOMAXPROCS(0))
	}
	rep, err := RunTraceOverhead(TraceOverheadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = WriteTraceOverhead(os.Stderr, rep)
	const budget = 0.05
	for _, sc := range rep.Scenarios {
		if sc.OverheadFraction > budget {
			t.Errorf("%s: tracing overhead %.2f%% exceeds the %.0f%% budget",
				sc.Name, sc.OverheadFraction*100, budget*100)
		}
	}
}
