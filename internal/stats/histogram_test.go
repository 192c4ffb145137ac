package stats

import (
	"bufio"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantilesWithinRelErr checks the documented bound against
// the exact quantiles of 100k log-uniform samples from 1 ns to 10 s, and
// that snapshots of two halves add up to the snapshot of the whole.
func TestHistogramQuantilesWithinRelErr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	xs := make([]float64, n)
	var whole, first, second Histogram
	var sum time.Duration
	for i := range xs {
		d := time.Duration(math.Exp(rng.Float64() * math.Log(1e10)))
		xs[i] = float64(d)
		sum += d
		whole.Record(d)
		if i%2 == 0 {
			first.Record(d)
		} else {
			second.Record(d)
		}
	}
	s := whole.Load()
	if s.Count() != n || s.Sum() != sum {
		t.Fatalf("count/sum = %d/%v, want %d/%v", s.Count(), s.Sum(), n, sum)
	}
	if merged := first.Load().Add(second.Load()); merged != s {
		t.Fatalf("the halves' snapshots do not add up to the whole")
	}
	if rest := s.Sub(first.Load()); rest != second.Load() {
		t.Fatalf("whole - first != second")
	}
	qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	exact := Quantiles(xs, qs...)
	worst := 0.0
	for i, q := range qs {
		got := float64(s.Quantile(q))
		// The bound plus the truncation to whole nanoseconds.
		if err := math.Abs(got - exact[i]); err > RelErr*exact[i]+1 {
			t.Errorf("q=%v: histogram %v, exact %v (relative error %.4f > %.4f)", q, got, exact[i], err/exact[i], RelErr)
		}
		worst = max(worst, math.Abs(got-exact[i])/exact[i])
	}
	t.Logf("worst relative error %.4f (bound %.4f)", worst, RelErr)
	var empty Snapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", empty.Quantile(0.5))
	}
}

// FuzzHistogramIndex checks the bucket layout: every value lies inside its
// bucket's bounds, and the bucket index never decreases as the value grows.
func FuzzHistogramIndex(f *testing.F) {
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 1023, 1024, 1 << 40, math.MaxInt64 - 1} {
		f.Add(v, uint32(1))
	}
	f.Fuzz(func(t *testing.T, v int64, step uint32) {
		if v < 0 {
			v = -(v + 1)
		}
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0, %d)", v, i, numBuckets)
		}
		lo, width := bucketBounds(i) // exact in float64: a few leading bits
		if x, l, h := uint64(v), uint64(lo), uint64(lo)+uint64(width); x < l || x >= h {
			t.Fatalf("value %d outside bucket %d = [%d, %d)", v, i, l, h)
		}
		if w := v + int64(step); w > v && bucketOf(w) < i {
			t.Fatalf("bucketOf(%d) = %d < bucketOf(%d) = %d", w, bucketOf(w), v, i)
		}
	})
}

// TestHistogramPrometheus parses the exposition: le bounds strictly
// increase, cumulative counts never decrease and match the recorded values,
// and +Inf equals _count.
func TestHistogramPrometheus(t *testing.T) {
	var h Histogram
	ds := []time.Duration{500, 3 * time.Microsecond, 3 * time.Microsecond, 2 * time.Millisecond, time.Hour}
	for _, d := range ds {
		h.Record(d)
	}
	s := h.Load()
	var b strings.Builder
	s.WritePrometheus(&b, "x_seconds", `shard="1"`)
	prevLe, prevCum := -1.0, -1.0
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var inf, count float64
	for sc.Scan() {
		series, val, _ := strings.Cut(sc.Text(), " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch {
		case strings.HasPrefix(series, `x_seconds_bucket{shard="1",le="+Inf"}`):
			inf = v
		case strings.HasPrefix(series, `x_seconds_bucket{shard="1",le="`):
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(series, `x_seconds_bucket{shard="1",le="`), `"}`), 64)
			if err != nil || le <= prevLe || v < prevCum {
				t.Fatalf("bucket line %q after le=%v cum=%v", sc.Text(), prevLe, prevCum)
			}
			want := 0.0
			for _, d := range ds {
				if d.Seconds() <= le {
					want++
				}
			}
			if v != want {
				t.Errorf("le=%v: cumulative %v, want %v", le, v, want)
			}
			prevLe, prevCum = le, v
		case series == `x_seconds_count{shard="1"}`:
			count = v
		case series == `x_seconds_sum{shard="1"}`:
			if math.Abs(v-s.Sum().Seconds()) > 1e-9 {
				t.Errorf("_sum = %v, want %v", v, s.Sum().Seconds())
			}
		default:
			t.Fatalf("unexpected line %q", sc.Text())
		}
	}
	if inf != float64(len(ds)) || count != inf {
		t.Errorf("+Inf = %v, _count = %v, want %d", inf, count, len(ds))
	}
}
