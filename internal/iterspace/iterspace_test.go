package iterspace

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Begin: 3, End: 10}
	if r.Len() != 7 || r.Empty() {
		t.Errorf("Len/Empty wrong: %v", r)
	}
	if (Range{Begin: 5, End: 5}).Len() != 0 || !(Range{Begin: 5, End: 5}).Empty() {
		t.Errorf("empty range misreported")
	}
	if (Range{Begin: 9, End: 2}).Len() != 0 {
		t.Errorf("inverted range should have length 0")
	}
	if r.String() != "[3,10)" {
		t.Errorf("String() = %q", r.String())
	}
	a, b := r.Split()
	if a.Len()+b.Len() != r.Len() || a.End != b.Begin || a.Begin != r.Begin || b.End != r.End {
		t.Errorf("Split() = %v,%v", a, b)
	}
	if a.Len() < b.Len() {
		t.Errorf("first half should get the extra iteration: %v %v", a, b)
	}
	single := Range{Begin: 4, End: 5}
	a, b = single.Split()
	if a != single || !b.Empty() {
		t.Errorf("splitting a singleton: %v %v", a, b)
	}
}

func TestBlockPartition(t *testing.T) {
	cases := []struct{ n, p int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {3, 10}, {100, 7}, {48, 48}, {47, 48}, {1000000, 48},
	}
	for _, c := range cases {
		prevEnd := 0
		total := 0
		for w := 0; w < c.p; w++ {
			r := Block(c.n, c.p, w)
			if r.Begin != prevEnd {
				t.Fatalf("Block(%d,%d,%d) begins at %d, want %d (contiguity)", c.n, c.p, w, r.Begin, prevEnd)
			}
			prevEnd = r.End
			total += r.Len()
		}
		if prevEnd != c.n || total != c.n {
			t.Fatalf("Block(%d,%d,·) covers %d ending at %d", c.n, c.p, total, prevEnd)
		}
		// Balance: sizes differ by at most one.
		min, max := c.n, 0
		for w := 0; w < c.p; w++ {
			l := Block(c.n, c.p, w).Len()
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Errorf("Block(%d,%d,·) imbalance %d", c.n, c.p, max-min)
		}
	}
}

func TestBlockPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Block(10, 0, 0) },
		func() { Block(10, 4, -1) },
		func() { Block(10, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPropertyBlockCoversExactly(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8, wRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw%64) + 1
		w := int(wRaw) % p
		r := Block(n, p, w)
		if r.Len() < 0 || r.Begin < 0 || r.End > n {
			return false
		}
		// Every iteration belongs to exactly one worker.
		if n > 0 {
			i := int(nRaw) % n
			owner := -1
			for ww := 0; ww < p; ww++ {
				rr := Block(n, p, ww)
				if i >= rr.Begin && i < rr.End {
					if owner != -1 {
						return false
					}
					owner = ww
				}
			}
			if owner == -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChunkerSequential(t *testing.T) {
	c := NewChunker(10, 3)
	var got []Range
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := []Range{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(got) != len(want) {
		t.Fatalf("chunks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunks = %v, want %v", got, want)
		}
	}
	if c.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhaustion", c.Remaining())
	}
	c.Reset()
	if r, ok := c.Next(); !ok || r.Begin != 0 {
		t.Errorf("after Reset, Next = %v,%v", r, ok)
	}
}

func TestChunkerInitInPlace(t *testing.T) {
	// Init supports embedding a Chunker by value (one cursor per job, no
	// allocation) and re-targeting it to a fresh iteration space.
	var c Chunker
	c.Init(7, 4)
	if c.Chunk() != 4 {
		t.Errorf("Chunk = %d, want 4", c.Chunk())
	}
	var got []Range
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := []Range{{0, 4}, {4, 7}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
	c.Init(5, 0) // chunk <= 0 selects 1, cursor rewinds
	if c.Chunk() != 1 {
		t.Errorf("Chunk = %d, want 1", c.Chunk())
	}
	if c.Remaining() != 5 {
		t.Errorf("Remaining = %d after re-Init, want 5", c.Remaining())
	}
	if r, ok := c.Next(); !ok || (r != Range{0, 1}) {
		t.Errorf("Next after re-Init = %v,%v", r, ok)
	}
}

func TestChunkerConcurrent(t *testing.T) {
	const n = 100000
	c := NewChunker(n, 7)
	var covered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := c.Next()
				if !ok {
					return
				}
				covered.Add(int64(r.Len()))
			}
		}()
	}
	wg.Wait()
	if covered.Load() != n {
		t.Errorf("concurrent chunker covered %d of %d", covered.Load(), n)
	}
}

func TestGuided(t *testing.T) {
	g := NewGuided(1000, 4, 10)
	var sizes []int
	total := 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		sizes = append(sizes, r.Len())
		total += r.Len()
	}
	if total != 1000 {
		t.Fatalf("guided covered %d", total)
	}
	if sizes[0] != 250 {
		t.Errorf("first guided chunk = %d, want remaining/p = 250", sizes[0])
	}
	last := sizes[len(sizes)-1]
	if last > 10 && last != total {
		t.Errorf("last chunk %d exceeds the minimum chunk", last)
	}
	// Sizes never increase by more than rounding effects; strictly, each
	// chunk is at most the previous one.
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Errorf("guided chunk %d grew: %v", i, sizes)
			break
		}
	}
	g.Reset()
	if r, ok := g.Next(); !ok || r.Begin != 0 {
		t.Errorf("after Reset: %v %v", r, ok)
	}
}

func TestGuidedConcurrent(t *testing.T) {
	const n = 50000
	g := NewGuided(n, 8, 16)
	var covered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := g.Next()
				if !ok {
					return
				}
				covered.Add(int64(r.Len()))
			}
		}()
	}
	wg.Wait()
	if covered.Load() != n {
		t.Errorf("concurrent guided covered %d of %d", covered.Load(), n)
	}
}
