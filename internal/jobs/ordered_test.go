package jobs_test

// Ordered reductions (Combine not declared Commutative) run on the same
// chunk-cursor path as every other job: each chunk's partial lands in its
// own slot and the last participant out folds the slots in chunk order. These
// tests pin the contract that buys: the result is the sequential fold over
// the job's chunks, bit for bit, whatever the sub-team size, the timing, a
// suspension or a crash recovery did.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/sched"
	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

// The decay fold is a float fold that is neither commutative nor
// associative: any reordering or regrouping of the chunk partials changes
// its bits.
const decayIdentity = 1.0

func decayCombine(a, b float64) float64 { return a*0.999 + b }

func decayBody(_, lo, hi int, acc float64) float64 {
	for i := lo; i < hi; i++ {
		acc = decayCombine(acc, math.Sqrt(float64(i)))
	}
	return acc
}

// decayChunkFold is the sequential reference: each chunk folded from the
// identity, the chunk partials folded in order.
func decayChunkFold(n, chunk int) float64 {
	acc := decayIdentity
	for lo := 0; lo < n; lo += chunk {
		acc = decayCombine(acc, decayBody(0, lo, min(lo+chunk, n), decayIdentity))
	}
	return acc
}

// slowAt wraps body so that the chunk starting at first finishes late: it
// arrives after the chunks that ran beside it, so a fold in arrival order
// instead of chunk order shows.
func slowAt(first int, body sched.ReduceBody) sched.ReduceBody {
	return func(w, lo, hi int, acc float64) float64 {
		if lo == first {
			time.Sleep(time.Millisecond)
		}
		return body(w, lo, hi, acc)
	}
}

// heldBody wraps body so that every chunk blocks until proceed is closed;
// started is closed once k chunks have begun, one per participant of a
// k-worker sub-team.
func heldBody(k int, body sched.ReduceBody) (held sched.ReduceBody, started, proceed chan struct{}) {
	started, proceed = make(chan struct{}), make(chan struct{})
	var begun atomic.Int32
	return func(w, lo, hi int, acc float64) float64 {
		if begun.Add(1) == int32(k) {
			close(started)
		}
		<-proceed
		return body(w, lo, hi, acc)
	}, started, proceed
}

// awaitClosed waits for c to close.
func awaitClosed(t *testing.T, c chan struct{}, what string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// awaitState polls until the job reaches want.
func awaitState(t *testing.T, j *jobs.Job, want jobs.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v waiting for %v", j.State(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestOrderedReduceSuspendResumeBitwise suspends an ordered float fold
// mid-run and resumes it: the result must carry the same bits as an
// unsuspended run at the same chunk size and as the sequential chunk-order
// fold. All four participants block in their first chunk until the
// suspension is posted, so the job parks with one chunk per worker done.
func TestOrderedReduceSuspendResumeBitwise(t *testing.T) {
	const k = 4
	s := jobs.New(jobs.Config{Workers: k})
	defer s.Close()
	// 4096/64 = 64 chunks, within the 16 slots per worker of a 4-worker
	// team, so the chunk stays at the grain.
	const n, grain = 4096, 64
	req := jobs.Request{N: n, Grain: grain, Identity: decayIdentity, Combine: decayCombine, RBody: slowAt(0, decayBody)}
	plain, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ref := decayChunkFold(n, grain); math.Float64bits(want) != math.Float64bits(ref) {
		t.Fatalf("unsuspended run = %v, sequential chunk-order fold = %v", want, ref)
	}

	var ran atomic.Int64
	counted := func(w, lo, hi int, acc float64) float64 {
		ran.Add(int64(hi - lo))
		return decayBody(w, lo, hi, acc)
	}
	held, started, proceed := heldBody(k, slowAt(0, counted))
	req.RBody = held
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, started, "the sub-team to assemble")
	if !j.Suspend() {
		t.Fatal("Suspend refused a running ordered reduction")
	}
	close(proceed)
	awaitState(t, j, jobs.Suspended)
	if r := ran.Load(); r <= 0 || r >= n {
		t.Fatalf("parked after %d of %d iterations, want mid-space", r, n)
	}
	if !j.Resume() {
		t.Fatal("Resume refused a suspended job")
	}
	got, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("suspended and resumed = %v (%#x), unsuspended = %v (%#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if r := ran.Load(); r != n {
		t.Fatalf("ran %d iterations across the suspension, want %d", r, n)
	}
}

// TestOrderedRecoveryResumesFromCursor is crash recovery for an ordered
// reduction: a job parked mid-space on one scheduler is re-submitted from
// its snapshot on a second one. The snapshot's Cursor > 0 must resume the
// job there — every iteration runs exactly once across the two schedulers —
// and the exact affine fold must match the sequential one.
func TestOrderedRecoveryResumesFromCursor(t *testing.T) {
	store := jobs.NewMemStore()
	const n = 2048
	marks := make([]atomic.Int32, n)
	marked := func(w, lo, hi int, acc float64) float64 {
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
		return schedtest.AffineBody(w, lo, hi, acc)
	}
	held, started, proceed := heldBody(2, slowAt(0, marked))
	req := jobs.Request{
		N: n, Grain: 16,
		Identity: schedtest.AffineIdentity, Combine: schedtest.AffineCombine, RBody: held,
		Checkpoint: &jobs.Checkpoint{Workload: "affine"},
	}

	s1 := jobs.New(jobs.Config{Workers: 2, Tracer: trace.NewTracer(64), Checkpoints: store})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, started, "the sub-team to assemble")
	if !j1.Suspend() {
		t.Fatal("Suspend refused a running ordered reduction")
	}
	close(proceed)
	awaitState(t, j1, jobs.Suspended)
	s1.Close() // cancels the suspended job, keeps the checkpoint

	cps, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("store holds %d checkpoints, want 1", len(cps))
	}
	cp := cps[0]
	if cp.Cursor <= 0 || cp.Cursor >= n {
		t.Fatalf("checkpoint cursor %d, want mid-space", cp.Cursor)
	}

	s2 := jobs.New(jobs.Config{Workers: 2, Tracer: trace.NewTracer(64), Checkpoints: store})
	defer s2.Close()
	req.RBody = slowAt(cp.Cursor, marked)
	req.Checkpoint = &cp
	j2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range marks {
		if c := marks[i].Load(); c != 1 {
			t.Fatalf("iteration %d executed %d times across recovery (cursor %d)", i, c, cp.Cursor)
		}
	}
	if want := schedtest.AffineBody(0, 0, n, schedtest.AffineIdentity); got != want {
		t.Fatalf("recovered ordered fold = %v, want %v", got, want)
	}
	if cps, _ := store.Load(); len(cps) != 0 {
		t.Fatalf("store holds %d checkpoints after recovered completion, want 0", len(cps))
	}
}

// FuzzOrderedReduce runs an ordered float fold over arbitrary sizes, grains,
// team sizes and worker caps. The chunks the body saw must tile the space at
// one chunk size (at least the grain, with at most 16 chunks per worker the
// job may use), and the result must carry the bits of the sequential fold
// over those chunks.
func FuzzOrderedReduce(f *testing.F) {
	f.Add(0, 0, 1, 0)
	f.Add(-5, 3, 2, 1)
	f.Add(97, 7, 3, 2)
	f.Add(1000, 0, 2, 0)
	f.Add(4096, 1, 4, 0)
	f.Add(12345, 3, 4, 3)
	f.Fuzz(func(t *testing.T, n, grain, workers, maxWorkers int) {
		n %= 1 << 14
		grain %= 1 << 10
		workers = 1 + int(uint(workers)%4)
		maxWorkers %= 5

		s := jobs.New(jobs.Config{Workers: workers})
		defer s.Close()
		var mu sync.Mutex
		var chunks [][2]int
		j, err := s.Submit(jobs.Request{
			N: n, Grain: grain, MaxWorkers: maxWorkers,
			Identity: decayIdentity, Combine: decayCombine,
			RBody: slowAt(0, func(w, lo, hi int, acc float64) float64 {
				mu.Lock()
				chunks = append(chunks, [2]int{lo, hi})
				mu.Unlock()
				return decayBody(w, lo, hi, acc)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(chunks, func(a, b int) bool { return chunks[a][0] < chunks[b][0] })
		chunk := 0
		if len(chunks) > 0 {
			chunk = chunks[0][1] - chunks[0][0]
		}
		next := 0
		for i, c := range chunks {
			if c[0] != next || (i < len(chunks)-1 && c[1]-c[0] != chunk) || c[1]-c[0] > chunk || c[1] <= c[0] {
				t.Fatalf("chunk %v breaks the tiling at %d (chunk size %d)", c, next, chunk)
			}
			next = c[1]
		}
		if next != max(n, 0) {
			t.Fatalf("chunks cover [0,%d) of [0,%d)", next, n)
		}
		if grain > 0 && len(chunks) > 1 && chunk < grain {
			t.Fatalf("chunk size %d below the grain %d", chunk, grain)
		}
		capK := s.P()
		if maxWorkers > 0 {
			capK = min(capK, maxWorkers)
		}
		if len(chunks) > 16*capK {
			t.Fatalf("%d chunks for a job capped at %d workers, want at most %d", len(chunks), capK, 16*capK)
		}
		want := decayIdentity
		if chunk > 0 {
			want = decayChunkFold(n, chunk)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ordered fold = %v (%#x), sequential chunk-order fold = %v (%#x)",
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
