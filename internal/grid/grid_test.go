package grid

import (
	"testing"
	"testing/quick"

	"loopsched/internal/iterspace"
)

func TestPaperGridHasExactPaperSizes(t *testing.T) {
	g, err := NewPaperGrid()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints != PaperPoints {
		t.Errorf("points = %d, want %d", g.NumPoints, PaperPoints)
	}
	if g.NumEdges() != PaperEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), PaperEdges)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTriangulatedSmall(t *testing.T) {
	g, err := NewTriangulated(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints != 12 {
		t.Errorf("points = %d", g.NumPoints)
	}
	// 3x4 lattice: 3*3 horizontal + 4*2 vertical + 2*3 diagonal = 9+8+6 = 23.
	if g.NumEdges() != 23 {
		t.Errorf("edges = %d, want 23", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every point of a connected triangulation has at least 2 incident edges.
	for p := 0; p < g.NumPoints; p++ {
		if g.Degree(p) < 2 {
			t.Errorf("point %d has degree %d", p, g.Degree(p))
		}
	}
}

func TestTriangulatedEdgeBudget(t *testing.T) {
	g, err := NewTriangulated(4, 4, 26) // lattice minimum is 24, full is 33
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 26 {
		t.Errorf("edges = %d, want 26", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTriangulatedErrors(t *testing.T) {
	if _, err := NewTriangulated(1, 5, 0); err == nil {
		t.Errorf("accepted a 1-row mesh")
	}
	if _, err := NewTriangulated(4, 4, 5); err == nil {
		t.Errorf("accepted an edge budget below the lattice minimum")
	}
	if _, err := NewTriangulated(4, 4, 1000); err == nil {
		t.Errorf("accepted an edge budget above the triangulation size")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g, err := NewTriangulated(6, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of degrees equals twice the edge count.
	total := 0
	for p := 0; p < g.NumPoints; p++ {
		total += g.Degree(p)
	}
	if total != 2*g.NumEdges() {
		t.Errorf("degree sum %d, want %d", total, 2*g.NumEdges())
	}
	// Each edge appears exactly once in each endpoint's incidence list.
	for e := 0; e < g.NumEdges(); e++ {
		for _, end := range []int32{g.EdgeFrom[e], g.EdgeTo[e]} {
			found := 0
			for _, ie := range g.IncidentEdges[g.IncidentStart[end]:g.IncidentStart[end+1]] {
				if int(ie) == e {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("edge %d appears %d times at point %d", e, found, end)
			}
		}
	}
}

func TestEdgeNormalsAreUnit(t *testing.T) {
	g, err := NewTriangulated(5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		l := g.EdgeNX[e]*g.EdgeNX[e] + g.EdgeNY[e]*g.EdgeNY[e]
		if l < 0.99 || l > 1.01 {
			t.Errorf("edge %d normal has squared length %v", e, l)
		}
	}
}

func TestPropertyRandomMeshesValidate(t *testing.T) {
	f := func(rRaw, cRaw uint8) bool {
		rows := int(rRaw%20) + 2
		cols := int(cRaw%20) + 2
		g, err := NewTriangulated(rows, cols, 0)
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.NumPoints == rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEdgesSortedByLowerEndpoint(t *testing.T) {
	for _, tc := range []struct{ rows, cols, budget int }{
		{3, 4, 0}, {6, 7, 0}, {4, 4, 26}, {64, 87, PaperEdges},
	} {
		g, err := NewTriangulated(tc.rows, tc.cols, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeFrom[e] >= g.EdgeTo[e] {
				t.Fatalf("%dx%d: edge %d is (%d,%d), want from < to", tc.rows, tc.cols, e, g.EdgeFrom[e], g.EdgeTo[e])
			}
			if e > 0 && g.EdgeFrom[e] < g.EdgeFrom[e-1] {
				t.Fatalf("%dx%d: edge %d starts at point %d after edge %d at %d",
					tc.rows, tc.cols, e, g.EdgeFrom[e], e-1, g.EdgeFrom[e-1])
			}
		}
	}
}

// TestPaperGridTrimsOnlyDiagonals checks that numbering edges by point
// leaves the edge set alone: the paper grid is the 64×87 lattice plus every
// cell diagonal but the last four, in cell order.
func TestPaperGridTrimsOnlyDiagonals(t *testing.T) {
	const rows, cols = 64, 87
	g, err := NewPaperGrid()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int32]bool{}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := int32(r*cols + c)
			if c+1 < cols {
				want[[2]int32{p, p + 1}] = true
			}
			if r+1 < rows {
				want[[2]int32{p, p + cols}] = true
			}
		}
	}
	var diagonals [][2]int32
	for r := 0; r+1 < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			p := int32(r*cols + c)
			if (r+c)%2 == 0 {
				diagonals = append(diagonals, [2]int32{p, p + cols + 1})
			} else {
				diagonals = append(diagonals, [2]int32{p + 1, p + cols})
			}
		}
	}
	for _, d := range diagonals[:len(diagonals)-4] {
		want[d] = true
	}
	if len(want) != PaperEdges {
		t.Fatalf("expected edge set has %d edges, want %d", len(want), PaperEdges)
	}
	seen := map[[2]int32]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		k := [2]int32{g.EdgeFrom[e], g.EdgeTo[e]}
		if !want[k] || seen[k] {
			t.Fatalf("edge %d = %v is unexpected or repeated", e, k)
		}
		seen[k] = true
	}
	if len(seen) != len(want) {
		t.Errorf("grid has %d distinct edges, want %d", len(seen), len(want))
	}
}

// TestStaticBlocksOfEdgesAndPointsCoincide checks what the edge numbering
// is for: under static blocks, at least 95% of the edges go to the worker
// whose block of points holds their lower endpoint (99.5% at P=2, 96.2% at
// P=8), and no worker falls below 90%. The last of eight blocks reads
// 92.5%: an interior point starts three edges and a point of the last row
// one, so edge blocks drift against point blocks towards the end.
func TestStaticBlocksOfEdgesAndPointsCoincide(t *testing.T) {
	g, err := NewPaperGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4, 8} {
		total := 0
		for w := 0; w < p; w++ {
			edges, points := iterspace.Block(g.NumEdges(), p, w), iterspace.Block(g.NumPoints, p, w)
			own := 0
			for e := edges.Begin; e < edges.End; e++ {
				if a := int(g.EdgeFrom[e]); a >= points.Begin && a < points.End {
					own++
				}
			}
			total += own
			if share := float64(own) / float64(edges.Len()); share < 0.90 {
				t.Errorf("P=%d worker %d: %.1f%% of edges %v start in points %v, want >= 90%%",
					p, w, 100*share, edges, points)
			}
		}
		if share := float64(total) / float64(g.NumEdges()); share < 0.95 {
			t.Errorf("P=%d: %.1f%% of edges start in their worker's points, want >= 95%%", p, 100*share)
		}
	}
}
