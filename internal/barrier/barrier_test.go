package barrier

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"loopsched/internal/spin"
	"loopsched/internal/topology"
)

func TestMain(m *testing.M) {
	// These tests oversubscribe GOMAXPROCS on purpose (participants allows up
	// to 2x the machine size), so the production spin thresholds — tuned for
	// dedicated, pinned workers — turn every wait into ~1 ms of fruitless
	// polling before the first yield. Shrink them so oversubscribed waiters
	// yield almost immediately; the synchronisation logic under test is
	// unchanged.
	spin.ActiveSpins = 1 << 6
	spin.YieldThreshold = 1 << 8
	os.Exit(m.Run())
}

// episodes returns full in the default mode and short under -short: the
// heavy contention/iteration cases only add confidence, not coverage.
func episodes(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// participants returns worker counts to exercise, bounded by the machine.
func participants() []int {
	max := runtime.GOMAXPROCS(0)
	cand := []int{1, 2, 3, 4, 5, 8, 13, 16}
	var out []int
	for _, c := range cand {
		if c <= 2*max { // oversubscription is allowed; waits yield
			out = append(out, c)
		}
	}
	return out
}

// makeFulls builds every Full implementation for p workers.
func makeFulls(p int) map[string]Full {
	topo := topology.New(p, 4)
	return map[string]Full{
		"centralized":  NewCentralized(p),
		"tree-grouped": NewTree(topo.GroupedTree(2, 2)),
		"tree-radix4":  NewTree(topology.RadixTree(p, 4)),
	}
}

// makeHalfPairs builds every HalfPair implementation for p workers.
func makeHalfPairs(p int) map[string]HalfPair {
	topo := topology.New(p, 4)
	return map[string]HalfPair{
		"centralized":  NewCentralized(p),
		"tree-grouped": NewTree(topo.GroupedTree(2, 2)),
		"tree-radix8":  NewTree(topology.RadixTree(p, 8)),
	}
}

// TestFullBarrierSynchronises checks the fundamental barrier property: no
// worker leaves episode e before every worker has entered it.
func TestFullBarrierSynchronises(t *testing.T) {
	episodes := episodes(50, 8)
	for _, p := range participants() {
		for name, bar := range makeFulls(p) {
			var entered atomic.Int64
			var failures atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < p; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for e := 0; e < episodes; e++ {
						entered.Add(1)
						bar.Wait(w)
						// After the barrier, all p workers of this episode
						// must have entered.
						if got := entered.Load(); got < int64((e+1)*p) {
							failures.Add(1)
						}
						bar.Wait(w) // second barrier separates episodes
					}
				}(w)
			}
			wg.Wait()
			if failures.Load() > 0 {
				t.Errorf("%s p=%d: %d episodes released early", name, p, failures.Load())
			}
			if bar.Participants() != p {
				t.Errorf("%s: Participants() = %d, want %d", name, bar.Participants(), p)
			}
		}
	}
}

// TestHalfBarrierLoopProtocol runs the full fork/join half-barrier protocol
// of a parallel loop: the master publishes data, releases, the workers read
// it and contribute, join, and the master observes every contribution.
func TestHalfBarrierLoopProtocol(t *testing.T) {
	loops := episodes(200, 25)
	for _, p := range participants() {
		if p < 2 {
			continue
		}
		for name, bar := range makeHalfPairs(p) {
			var published int64 // written by master before Release
			contrib := make([]int64, p)
			var wg sync.WaitGroup
			stop := int64(-1)

			for w := 1; w < p; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						bar.Release(w)
						v := atomic.LoadInt64(&published)
						if v == stop {
							return
						}
						atomic.StoreInt64(&contrib[w], v)
						bar.Join(w)
					}
				}(w)
			}

			for l := 1; l <= loops; l++ {
				atomic.StoreInt64(&published, int64(l))
				bar.Release(0)
				atomic.StoreInt64(&contrib[0], int64(l))
				bar.Join(0)
				for w := 0; w < p; w++ {
					if got := atomic.LoadInt64(&contrib[w]); got != int64(l) {
						t.Fatalf("%s p=%d loop %d: worker %d contributed %d", name, p, l, w, got)
					}
				}
			}
			atomic.StoreInt64(&published, stop)
			bar.Release(0)
			wg.Wait()
		}
	}
}

// TestJoinCombinePerformsExactlyPMinus1Combines verifies the paper's claim
// that merging the reduction into the join wave costs exactly P-1 combine
// operations, and that the combines reconstruct iteration order.
func TestJoinCombinePerformsExactlyPMinus1Combines(t *testing.T) {
	for _, p := range participants() {
		if p < 2 {
			continue
		}
		for name, bar := range makeHalfPairs(p) {
			// Each worker's "view" is the list of worker indices folded into
			// it so far, starting with itself.
			views := make([][]int, p)
			for i := range views {
				views[i] = []int{i}
			}
			var combines atomic.Int64
			var mu sync.Mutex
			combine := func(into, from int) {
				mu.Lock()
				views[into] = append(views[into], views[from]...)
				views[from] = nil
				mu.Unlock()
				combines.Add(1)
			}

			var wg sync.WaitGroup
			for w := 1; w < p; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bar.JoinCombine(w, combine)
				}(w)
			}
			bar.JoinCombine(0, combine)
			wg.Wait()

			if got := combines.Load(); got != int64(p-1) {
				t.Errorf("%s p=%d: %d combines, want %d", name, p, got, p-1)
			}
			if len(views[0]) != p {
				t.Fatalf("%s p=%d: root folded %d views, want %d (%v)", name, p, len(views[0]), p, views[0])
			}
			for i, v := range views[0] {
				if v != i {
					t.Errorf("%s p=%d: fold order %v violates iteration order at position %d", name, p, views[0], i)
					break
				}
			}
		}
	}
}

// TestReleaseDoesNotWaitForWorkers checks the defining property of the fork
// half-barrier: the master's Release returns even if no worker has arrived
// yet.
func TestReleaseDoesNotWaitForWorkers(t *testing.T) {
	for name, bar := range makeHalfPairs(4) {
		done := make(chan struct{})
		go func() {
			bar.Release(0) // no other worker participates yet
			close(done)
		}()
		select {
		case <-done:
		default:
			// Give it a moment: the call should complete without any other
			// participant.
			<-done
		}
		// Now let the workers consume the release so the barrier is reusable.
		var wg sync.WaitGroup
		for w := 1; w < 4; w++ {
			wg.Add(1)
			go func(w int) { defer wg.Done(); bar.Release(w) }(w)
		}
		wg.Wait()
		_ = name
	}
}

// TestJoinRootWaitsForAllWorkers checks the join half: the root must not
// return before every worker has joined.
func TestJoinRootWaitsForAllWorkers(t *testing.T) {
	for name, bar := range makeHalfPairs(4) {
		p := 4
		rootDone := make(chan struct{})
		go func() {
			bar.Join(0)
			close(rootDone)
		}()
		// No worker has joined yet: the root must still be blocked.
		select {
		case <-rootDone:
			t.Fatalf("%s: root returned before any worker joined", name)
		default:
		}
		var wg sync.WaitGroup
		for w := 1; w < p; w++ {
			wg.Add(1)
			go func(w int) { defer wg.Done(); bar.Join(w) }(w)
		}
		wg.Wait()
		<-rootDone
	}
}

// TestTreeShapeOrderingProperty: the contiguous-subtree property that makes
// JoinCombine order-preserving, checked over random shapes.
func TestTreeShapeOrderingProperty(t *testing.T) {
	f := func(pRaw uint8, fanRaw uint8, groupRaw uint8) bool {
		p := int(pRaw%32) + 1
		fan := int(fanRaw%6) + 2
		group := int(groupRaw%8) + 1
		shapes := []topology.TreeShape{
			topology.RadixTree(p, fan),
			topology.New(p, group).GroupedTree(fan, 3),
		}
		for _, shape := range shapes {
			if err := shape.Validate(); err != nil {
				return false
			}
			if !subtreesContiguous(shape) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: episodes(200, 50)}); err != nil {
		t.Error(err)
	}
}

// subtreesContiguous verifies that every subtree covers a contiguous index
// range starting at its root.
func subtreesContiguous(s topology.TreeShape) bool {
	var span func(w int) (lo, hi int, size int, ok bool)
	span = func(w int) (int, int, int, bool) {
		lo, hi, size := w, w, 1
		prevHi := w
		for _, c := range s.Children[w] {
			clo, chi, csz, ok := span(c)
			if !ok {
				return 0, 0, 0, false
			}
			if clo != prevHi+1 { // children ranges must be adjacent, in order
				return 0, 0, 0, false
			}
			prevHi = chi
			hi = chi
			size += csz
			_ = clo
		}
		if hi-lo+1 != size {
			return 0, 0, 0, false
		}
		return lo, hi, size, true
	}
	lo, hi, size, ok := span(s.Root())
	return ok && lo == 0 && hi == s.P-1 && size == s.P
}

// TestBarrierReuseManyEpisodes stresses episode bookkeeping with thousands
// of episodes on a small worker count.
func TestBarrierReuseManyEpisodes(t *testing.T) {
	episodes := episodes(2000, 200)
	p := 4
	for name, bar := range makeFulls(p) {
		var sum atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for e := 0; e < episodes; e++ {
					sum.Add(1)
					bar.Wait(w)
				}
			}(w)
		}
		wg.Wait()
		if got := sum.Load(); got != int64(episodes*p) {
			t.Errorf("%s: %d increments, want %d", name, got, episodes*p)
		}
	}
}

// TestSingleParticipant ensures all primitives degenerate gracefully to
// no-ops for P=1.
func TestSingleParticipant(t *testing.T) {
	for name, bar := range makeFulls(1) {
		for i := 0; i < 10; i++ {
			bar.Wait(0)
		}
		_ = name
	}
	for name, bar := range makeHalfPairs(1) {
		for i := 0; i < 10; i++ {
			bar.Release(0)
			bar.Join(0)
			bar.JoinCombine(0, func(into, from int) {
				t.Errorf("%s: combine called with a single participant", name)
			})
		}
	}
}

func TestInvalidConstructionPanics(t *testing.T) {
	cases := []func(){
		func() { NewCentralized(0) },
		func() { NewCentralized(-3) },
		func() { NewTree(topology.TreeShape{}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestTreeBarrierRootIsZero documents the assumption the schedulers rely on:
// worker 0 is the root of shapes built by the topology package.
func TestTreeBarrierRootIsZero(t *testing.T) {
	for _, p := range []int{1, 2, 5, 12, 48} {
		tr := NewTree(topology.Detect(p).GroupedTree(4, 4))
		if tr.Root() != 0 {
			t.Errorf("p=%d: root = %d, want 0", p, tr.Root())
		}
		if tr.Shape().P != p {
			t.Errorf("p=%d: shape.P = %d", p, tr.Shape().P)
		}
	}
}
