package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCalibrateUnitIsSafeConcurrently(t *testing.T) {
	// The loopd daemon calibrates from HTTP handler goroutines; concurrent
	// first calls must race-cleanly agree on one value.
	var wg sync.WaitGroup
	vals := make([]float64, 8)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = CalibrateUnit()
		}(i)
	}
	wg.Wait()
	for i, v := range vals {
		if v != vals[0] || v <= 0 {
			t.Fatalf("goroutine %d saw unit cost %v, want %v", i, v, vals[0])
		}
	}
}

func TestCalibrateUnitIsPositiveAndCached(t *testing.T) {
	a := CalibrateUnit()
	b := CalibrateUnit()
	if a <= 0 {
		t.Fatalf("unit cost %v", a)
	}
	if a != b {
		t.Errorf("calibration not cached: %v vs %v", a, b)
	}
}

func TestCalibrateTargets(t *testing.T) {
	w := Calibrate(1000) // ~1 µs per iteration
	if w.UnitsPerIter < 1 {
		t.Fatalf("units = %d", w.UnitsPerIter)
	}
	if w.NsPerIter <= 0 {
		t.Fatalf("NsPerIter = %v", w.NsPerIter)
	}
	// A tiny target still yields at least one unit.
	tiny := Calibrate(0.0001)
	if tiny.UnitsPerIter != 1 {
		t.Errorf("tiny target should clamp to 1 unit, got %d", tiny.UnitsPerIter)
	}
}

func TestWorkRunAccumulates(t *testing.T) {
	w := Work{UnitsPerIter: 10, NsPerIter: 1}
	a := w.Run(0, 100)
	b := w.Run(0, 100)
	if a != b {
		t.Errorf("Run is not deterministic: %d vs %d", a, b)
	}
	if a == 0 {
		t.Errorf("Run returned 0; the kernel may have been optimised away")
	}
	if w.Iter(3) == 0 {
		t.Errorf("Iter returned 0")
	}
	if w.SequentialNs(1000) != 1000 {
		t.Errorf("SequentialNs = %v", w.SequentialNs(1000))
	}
}

func TestWorkDurationScalesWithUnits(t *testing.T) {
	small := Work{UnitsPerIter: 100}
	large := Work{UnitsPerIter: 10000}
	timeIt := func(w Work) time.Duration {
		start := time.Now()
		for r := 0; r < 50; r++ {
			Sink += w.Run(0, 10)
		}
		return time.Since(start)
	}
	ts := timeIt(small)
	tl := timeIt(large)
	if tl < 10*ts {
		t.Errorf("100x more units only took %.1fx longer (%v vs %v); kernel may be optimised away",
			float64(tl)/float64(ts+1), tl, ts)
	}
}

func TestNewSweepShape(t *testing.T) {
	s := NewSweep(100, 2*time.Microsecond, 2*time.Millisecond, 12)
	if len(s.Counts) < 5 {
		t.Fatalf("sweep has only %d points", len(s.Counts))
	}
	for i := 1; i < len(s.Counts); i++ {
		if s.Counts[i] <= s.Counts[i-1] {
			t.Errorf("sweep counts not strictly increasing: %v", s.Counts)
			break
		}
	}
	if s.Counts[0] < 1 {
		t.Errorf("first count %d", s.Counts[0])
	}
	// The largest loop should be roughly maxTotal/NsPerIter.
	last := float64(s.Counts[len(s.Counts)-1]) * s.Work.NsPerIter
	if last < float64((1 * time.Millisecond).Nanoseconds()) {
		t.Errorf("sweep tops out at %.0f ns of work, want >= 1 ms", last)
	}
	// Degenerate arguments still produce a sane sweep.
	d := NewSweep(100, time.Millisecond, time.Microsecond, 1)
	if len(d.Counts) < 2 {
		t.Errorf("degenerate sweep: %v", d.Counts)
	}
}

func TestCostSweepRoundsToNearestFromMinTotal(t *testing.T) {
	units := func(s CostSweep) []int {
		var u []int
		for _, w := range s.Works {
			u = append(u, w.UnitsPerIter)
		}
		return u
	}
	// Targets of 1.67, 16.7 and 167 units per iteration: the first rounds
	// up, the others to nearest (rounding down gave 1, 16, 166).
	s := costSweep(1, 10*time.Nanosecond, 1000*time.Nanosecond, 3, 6)
	if got, want := units(s), []int{2, 17, 167}; !reflect.DeepEqual(got, want) {
		t.Errorf("units per iteration %v, want %v", got, want)
	}
	// Targets of 1, 1.41, 2, 2.83 and 4 units: 1.41 rounds like the point
	// before it and is dropped.
	s = costSweep(1, 100*time.Nanosecond, 400*time.Nanosecond, 5, 100)
	if got, want := units(s), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("units per iteration %v, want %v", got, want)
	}
	// cmd/burden's defaults with a 2 ns unit: 20 µs over 4096 iterations is
	// 2.44 units per iteration, so the first loop runs 3 units (24.6 µs),
	// not 2 (16.4 µs).
	minTotal, maxTotal := 20*time.Microsecond, 20*time.Millisecond
	s = costSweep(4096, minTotal, maxTotal, 14, 2)
	if len(s.Works) > 14 || len(s.Works) < 2 {
		t.Fatalf("sweep has %d points, want 2..14", len(s.Works))
	}
	first, last := s.TotalNs(0), s.TotalNs(len(s.Works)-1)
	if lo := float64(minTotal.Nanoseconds()); first < lo || first >= lo+4096*2 {
		t.Errorf("first loop totals %.0f ns, want within one unit per iteration above %.0f", first, lo)
	}
	if hi := float64(maxTotal.Nanoseconds()); math.Abs(last-hi) > 4096*2/2 {
		t.Errorf("last loop totals %.0f ns, want within half a unit per iteration of %.0f", last, hi)
	}
	for i := 1; i < len(s.Works); i++ {
		if s.Works[i].UnitsPerIter <= s.Works[i-1].UnitsPerIter {
			t.Fatalf("units per iteration not increasing: %v", units(s))
		}
	}
}
