package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore()
	for _, id := range []uint64{3, 1, 2} {
		if err := st.Put(Checkpoint{JobID: id, Workload: "w", N: int(id) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(Checkpoint{JobID: 2, Workload: "w", N: 20, Cursor: 7}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	cps, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 || cps[0].JobID != 1 || cps[1].JobID != 2 {
		t.Fatalf("load = %+v, want ids [1 2] ascending", cps)
	}
	if cps[1].Cursor != 7 {
		t.Fatalf("put did not replace: cursor = %d, want 7", cps[1].Cursor)
	}
}

func TestFileStoreReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	dl := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	put := []Checkpoint{
		{JobID: 1, Workload: "a", N: 100, Cursor: 40, Acc: 780},
		{JobID: 2, Workload: "b", N: 50, Tenant: "t", Priority: 3, Deadline: dl, After: []uint64{1}},
		{JobID: 3, Workload: "c", N: 10},
	}
	for _, cp := range put {
		if err := st.Put(cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(3); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cps, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 {
		t.Fatalf("replay found %d checkpoints, want 2", len(cps))
	}
	if cps[0].JobID != 1 || cps[0].Cursor != 40 || cps[0].Acc != 780 {
		t.Fatalf("checkpoint 1 mangled: %+v", cps[0])
	}
	if cps[1].Tenant != "t" || cps[1].Priority != 3 || !cps[1].Deadline.Equal(dl) || len(cps[1].After) != 1 {
		t.Fatalf("checkpoint 2 mangled: %+v", cps[1])
	}
}

// TestFileStoreDecodesRetiredKeys: a WAL written before a Checkpoint field
// was retired still replays; the stale key is ignored.
func TestFileStoreDecodesRetiredKeys(t *testing.T) {
	dir := t.TempDir()
	rec := `{"op":"put","cp":{"job":7,"workload":"w","n":100,"cursor":40,"acc":780,"commutative":true}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cps, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].JobID != 7 || cps[0].Cursor != 40 || cps[0].Acc != 780 {
		t.Fatalf("load = %+v, want job 7 at cursor 40 with acc 780", cps)
	}
}

func TestFileStoreToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Checkpoint{JobID: 9, Workload: "w", N: 5}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, walName)
	// Simulate a crash mid-append: a torn, unparseable final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","cp":{"job":10,"wor`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	defer st2.Close()
	cps, _ := st2.Load()
	if len(cps) != 1 || cps[0].JobID != 9 {
		t.Fatalf("load after torn tail = %+v, want just job 9", cps)
	}
}

func TestFileStoreRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	body := `{"op":"put","cp":{"job":1,"workload":"w","n":5}}` + "\n" +
		`garbage not json` + "\n" +
		`{"op":"put","cp":{"job":2,"workload":"w","n":5}}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption must fail the open, got err = %v", err)
	}
}

func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Churn far past the slack: every put/delete pair leaves dead records.
	for i := 0; i < walCompactSlack+200; i++ {
		id := uint64(i + 1)
		if err := st.Put(Checkpoint{JobID: id, Workload: "w", N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(Checkpoint{JobID: 999999, Workload: "live", N: 1}); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	records, live := st.records, len(st.live)
	st.mu.Unlock()
	if records > live+walCompactSlack+1 {
		t.Fatalf("WAL holds %d records for %d live snapshots; compaction never ran", records, live)
	}
	cps, _ := st.Load()
	if len(cps) != 1 || cps[0].Workload != "live" {
		t.Fatalf("post-compaction load = %+v", cps)
	}
}
