package main

import "testing"

// TestSelfTest requires every output check to accept a genuine output and
// reject a corrupted one.
func TestSelfTest(t *testing.T) {
	lines, err := selfTest()
	for _, l := range lines {
		t.Log(l)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the bounds are checked with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 2.25},
		// statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
		{[]float64{3, 1, 2, 5, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
