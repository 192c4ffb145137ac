package stats

import (
	"testing"
	"time"
)

func TestMedianEven(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("Median(nil) = %v", m)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose; input must not be modified
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
		{-1, 1}, {2, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantiles(xs, c.q)[0]; got != c.want {
			t.Errorf("Quantiles(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("input modified: %v", xs)
	}
	if got := Quantiles(nil, 0.5)[0]; got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := Quantiles([]float64{7}, 0.99)[0]; got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	qs := []float64{0, 1, 0.5, 0.25, 0.125, -1, 2} // the last two are clamped
	want := []float64{1, 5, 3, 2, 1.5, 1, 5}
	got := Quantiles(xs, qs...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles(%v) = %v, want %v", qs, got, want)
		}
	}
	if out := Quantiles(nil, 0.5, 0.9); len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Errorf("empty Quantiles = %v", out)
	}
	// One call with many qs agrees with one call per q.
	for i, q := range qs {
		if one := Quantiles(xs, q)[0]; one != got[i] {
			t.Errorf("Quantiles(%v) alone = %v, in a batch = %v", q, one, got[i])
		}
	}
	if Quantiles(xs, 0.5)[0] != Median(xs) {
		t.Errorf("median quantile disagrees with Median")
	}
}

func TestDurations(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if MinDuration(ds) != time.Millisecond {
		t.Errorf("MinDuration = %v", MinDuration(ds))
	}
	if MinDuration(nil) != 0 {
		t.Errorf("empty durations should yield 0")
	}
}

func TestTimer(t *testing.T) {
	calls := 0
	ds := Timer(3, true, func() { calls++ })
	if len(ds) != 3 || calls != 4 { // 1 warm-up + 3 timed
		t.Errorf("Timer ran %d times, returned %d samples", calls, len(ds))
	}
	ds = Timer(0, false, func() { calls++ })
	if len(ds) != 1 {
		t.Errorf("Timer with reps<=0 should run once")
	}
	for _, d := range ds {
		if d < 0 {
			t.Errorf("negative duration %v", d)
		}
	}
}
