package stats

import (
	"sync"
	"testing"
	"time"
)

// TestWindowRace records from several goroutines while a reader loads and
// the marks rotate: no bucket of a window may go negative (exceed the live
// count), the final count equals the records made, and the quiescent window
// holds n to 2n-1 of them.
func TestWindowRace(t *testing.T) {
	const writers, each, n = 4, 5000, 64
	var w Window[Histogram, Snapshot, *Histogram]
	w.N = n
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			life, win := w.Load()
			for i := range win.counts {
				if win.counts[i] > life.counts[i] || win.sum < 0 {
					t.Errorf("window bucket %d = %d, live %d, sum %d", i, win.counts[i], life.counts[i], win.sum)
					return
				}
			}
			win.Quantile(1) // walks every bucket: panics if counts and total disagree
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Live.Record(time.Duration(i) * time.Microsecond)
				w.Tick()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	life, win := w.Load()
	if life.Count() != writers*each {
		t.Fatalf("final count %d, want %d", life.Count(), writers*each)
	}
	if c := win.Count(); c < n || c >= 2*n {
		t.Fatalf("quiescent window = %d, want [%d, %d)", c, n, 2*n)
	}
}
