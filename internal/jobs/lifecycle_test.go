package jobs

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/trace"
)

// TestCancelPublishesAfterBookkeeping races a waiter against Cancel on a job
// in each cancelable state and requires that a waiter woken by the
// cancellation finds it fully accounted: the state's gauge no longer counts
// the job, the canceled total includes it, the trace is finished and the
// checkpoint is gone. Regression: Cancel used to wake waiters first and do
// all of that afterwards, so a waiter could observe ErrCanceled next to a
// stale gauge and an unfinished trace.
func TestCancelPublishesAfterBookkeeping(t *testing.T) {
	iters := 6000
	if testing.Short() || raceEnabled {
		iters = 1500
	}
	store := NewMemStore()
	s := testScheduler(t, 1, Config{Tracer: trace.NewTracer(64), Checkpoints: store})
	hogReq, release := gate()
	hog := mustSubmit(t, s, hogReq)
	t.Cleanup(func() { close(release) })
	waitState(t, hog, Running)

	type seen struct {
		err      error
		depth    int64
		canceled int64
		finished bool
		ckpts    int
	}
	var canceled int64
	for _, c := range []struct {
		from  State
		depth func(Stats) int64
	}{
		{Blocked, func(st Stats) int64 { return st.BlockedDepth }},
		{Pending, func(st Stats) int64 { return int64(st.QueueDepth) }},
		{Suspended, func(st Stats) int64 { return st.SuspendedDepth }},
	} {
		failures := 0
		for i := 0; i < iters; i++ {
			req := Request{N: 1, Body: func(w, lo, hi int) {}, Checkpoint: &Checkpoint{Workload: "noop"}}
			if c.from == Blocked {
				req.After = []*Job{hog}
			}
			j := mustSubmit(t, s, req)
			if c.from == Suspended && !j.Suspend() {
				t.Fatal("Suspend refused a queued job")
			}
			if st := j.State(); st != c.from {
				t.Fatalf("job in state %v, want %v", st, c.from)
			}
			started := make(chan struct{})
			got := make(chan seen, 1)
			go func() {
				done := j.Done()
				close(started)
				// Spin rather than park, so the waiter looks at the
				// scheduler the instant the cancellation is published.
				for spinning := true; spinning; {
					select {
					case <-done:
						spinning = false
					default:
						runtime.Gosched()
					}
				}
				_, err := j.Wait()
				st := s.Stats()
				cps, _ := store.Load()
				got <- seen{err, c.depth(st), st.Canceled, j.Trace().Finished(), len(cps)}
			}()
			<-started
			if !j.Cancel() {
				t.Fatalf("Cancel refused a %v job", c.from)
			}
			canceled++
			g := <-got
			if !errors.Is(g.err, ErrCanceled) {
				t.Fatalf("%v: Wait returned %v, want ErrCanceled", c.from, g.err)
			}
			if g.depth != 0 || g.canceled != canceled || !g.finished || g.ckpts != 0 {
				failures++
				if failures <= 3 {
					t.Errorf("%v, iteration %d: waiter saw %v depth %d, canceled %d (want %d), trace finished %v, %d checkpoints",
						c.from, i, c.from, g.depth, g.canceled, canceled, g.finished, g.ckpts)
				}
			}
		}
		if failures > 0 {
			t.Errorf("%v: %d of %d cancellations woke a waiter before their bookkeeping", c.from, failures, iters)
		}
	}
}

// TestReleaseKeepsCanceledBlockedJob: a dependent its owner canceled while
// Blocked is still listed by its upstream, so Release must not recycle it —
// the upstream's completion would otherwise count against whichever job
// reused it, releasing that job before its own upstream finished.
func TestReleaseKeepsCanceledBlockedJob(t *testing.T) {
	s := testScheduler(t, 2, Config{})
	req1, gate1 := gate()
	req2, gate2 := gate()
	open1 := sync.OnceFunc(func() { close(gate1) })
	open2 := sync.OnceFunc(func() { close(gate2) })
	t.Cleanup(open1)
	t.Cleanup(open2)
	up1, up2 := mustSubmit(t, s, req1), mustSubmit(t, s, req2)
	d := mustSubmit(t, s, Request{N: 1, Body: func(w, lo, hi int) {}, After: []*Job{up1}})
	if !d.Cancel() {
		t.Fatal("Cancel refused a Blocked job")
	}
	d.Release()
	var up2Done atomic.Bool
	x := mustSubmit(t, s, Request{N: 1, After: []*Job{up2}, Body: func(w, lo, hi int) {
		if !up2Done.Load() {
			t.Error("dependent ran before its upstream completed")
		}
	}})
	open1()
	if _, err := up1.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := x.State(); st != Blocked {
		t.Fatalf("dependent in state %v after an unrelated job completed, want Blocked", st)
	}
	up2Done.Store(true)
	open2()
	if _, err := x.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestJobStateWrittenOnlyInLifecycle keeps every write of Job.state in
// lifecycle.go, the one file that owns the lifecycle edges and the order of
// their side effects. It type-checks the package's non-test files (imports
// are stubbed: only the receiver's type matters) and fails on any Store,
// CompareAndSwap or Swap call on a Job's state field elsewhere.
func TestJobStateWrittenOnlyInLifecycle(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{
		Importer: stubImporter{},
		Error:    func(error) {}, // stubbed imports leave their types unresolved
	}
	_, _ = conf.Check("loopsched/internal/jobs", fset, files, info) // errors: see Error
	writes := 0
	for _, f := range files {
		file := filepath.Base(fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch method.Sel.Name {
			case "Store", "CompareAndSwap", "Swap":
			default:
				return true
			}
			field, ok := method.X.(*ast.SelectorExpr)
			if !ok || field.Sel.Name != "state" {
				return true
			}
			typ := info.Types[field.X].Type
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok || named.Obj().Name() != "Job" {
				return true
			}
			writes++
			if file != "lifecycle.go" {
				t.Errorf("%s: Job.state.%s outside lifecycle.go", fset.Position(call.Pos()), method.Sel.Name)
			}
			return true
		})
	}
	if writes == 0 {
		t.Fatal("found no Job.state writes at all; the guard no longer sees the field")
	}
}

// stubImporter satisfies every import with an empty package of the right
// name, so the guard type-checks this package alone.
type stubImporter struct{}

func (stubImporter) Import(p string) (*types.Package, error) {
	pkg := types.NewPackage(p, path.Base(p))
	pkg.MarkComplete()
	return pkg, nil
}
