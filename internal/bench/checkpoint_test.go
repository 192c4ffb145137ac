package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint scenario runs three fleets; skipped in -short")
	}
	rep, err := RunCheckpoint(CheckpointOptions{
		Workers: 2, Jobs: 16, N: 1024, Reps: 1, PutRecords: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.JobsPerSecond <= 0 || rep.Durable.JobsPerSecond <= 0 {
		t.Fatalf("phases served no work: baseline %+v durable %+v", rep.Baseline, rep.Durable)
	}
	// The durable fleet checkpoints every submission; the churn fleet also
	// writes a park record per parked job and must resume every one of them
	// — the phase itself fails if any reduction comes back partial or
	// doubled. A job may finish before its suspend lands, so the resumes
	// are checked against the jobs that parked, and at least one must park.
	if rep.Durable.CheckpointWrites < int64(rep.Jobs) {
		t.Errorf("durable phase wrote %d checkpoints for %d jobs", rep.Durable.CheckpointWrites, rep.Jobs)
	}
	if sr := rep.SuspendResume; sr.Resumes != sr.Parked || sr.Parked < 1 {
		t.Errorf("suspend/resume phase resumed %d jobs, %d of %d parked; want resumes == parked >= 1",
			sr.Resumes, sr.Parked, rep.Jobs)
	}
	if rep.CheckpointWriteNs <= 0 {
		t.Error("write-cost phase measured nothing")
	}
	var buf bytes.Buffer
	if err := WriteCheckpointBench(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty report")
	}
	// The JSON artifact round-trips with the stable field names benchcmp
	// compares (the overhead ratios and the per-phase throughput).
	path := filepath.Join(t.TempDir(), "BENCH_checkpoint.json")
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
	for _, key := range []string{"baseline", "durable", "suspend_resume", "store_overhead_ratio", "checkpoint_write_ns"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("artifact missing %q:\n%s", key, data)
		}
	}
}

func TestCheckpointAcceptance(t *testing.T) {
	// The acceptance criterion: writing durable checkpoints for a fleet
	// nobody suspends costs at most 5% of makespan, and the churn phase
	// suspends and resumes every single job with byte-identical reductions
	// (the phase errors out otherwise). Asserted only with
	// BENCH_STRICT=1 on a quiet machine — a 5% makespan band on a
	// noisy shared runner measures the neighbours, not the WAL.
	if !Strict() {
		t.Skip("set BENCH_STRICT=1 to assert the <= 5% durability-overhead criterion (needs a quiet machine)")
	}
	// Longer fleets than the default: at the default ~25ms makespan the
	// run-to-run scheduler noise is the same order as the 5% band, while the
	// actual WAL cost (one ~3µs append per job) is far below it.
	rep, err := RunCheckpoint(CheckpointOptions{N: 16384, Reps: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_ = WriteCheckpointBench(&buf, rep)
	t.Logf("\n%s", buf.String())
	if rep.StoreOverheadRatio > 1.05 {
		t.Errorf("store overhead %.3fx baseline, want <= 1.05x", rep.StoreOverheadRatio)
	}
	if rep.SuspendResume.Resumes != int64(rep.Jobs) {
		t.Errorf("churn phase resumed %d of %d jobs, want all", rep.SuspendResume.Resumes, rep.Jobs)
	}
}
