// Package grid provides the unstructured grid substrate for the MPDATA
// experiment (Figure 2 of the paper).
//
// The paper evaluates MPDATA "on a grid with 5568 points and 16399 edges"
// from the European Centre for Medium-range Weather Forecasting. That grid
// is not publicly available, so this package generates a synthetic
// unstructured grid of the same size and character: a planar triangulated
// mesh of a rectangular domain (with a small amount of boundary trimming to
// hit the exact edge count), stored in compressed adjacency (CSR) form. What
// matters for the reproduction is the *shape of the loops* MPDATA runs over
// the grid — an edge loop of ~16k very cheap iterations and point loops of
// ~5.5k iterations — which the synthetic mesh preserves exactly.
//
// Edges are numbered by their lower endpoint, so the edges of a point come
// right after those of the point before it. Points are numbered row by row,
// so a static block of edges then covers nearly the same stretch of points
// as the static block of points with the same index: on the paper grid
// 99.5% of edges go to the worker that owns their lower endpoint at P=2 and
// 96.2% at P=8, against 67% and 17% with the diagonals numbered after all
// lattice edges. A worker's edge loop then mostly reads the points its point
// loops wrote and writes the edge values its point loops read, so those
// stay in its own cache.
package grid

import (
	"fmt"
	"math"
)

// Grid is an unstructured mesh described by its points and edges, with CSR
// adjacency for point-centric loops.
type Grid struct {
	// NumPoints is the number of mesh points.
	NumPoints int
	// X and Y are the point coordinates.
	X, Y []float64
	// Area is the dual-cell area associated with each point.
	Area []float64

	// EdgeFrom and EdgeTo are the endpoints of each edge (from < to), in
	// non-decreasing order of EdgeFrom.
	EdgeFrom, EdgeTo []int32
	// EdgeNX and EdgeNY are the components of the edge normal (scaled by the
	// face length of the dual cell boundary crossing the edge).
	EdgeNX, EdgeNY []float64

	// CSR adjacency: the edges incident to point p are
	// IncidentEdges[IncidentStart[p]:IncidentStart[p+1]].
	IncidentStart []int32
	IncidentEdges []int32
}

// NumEdges returns the number of edges.
func (g *Grid) NumEdges() int { return len(g.EdgeFrom) }

// PaperPoints and PaperEdges are the sizes reported in the paper for the
// MPDATA grid.
const (
	PaperPoints = 5568
	PaperEdges  = 16399
)

// NewTriangulated builds a triangulated structured-topology mesh with rows×
// cols points: every interior cell of the underlying lattice is split into
// two triangles, so edges are the horizontal, vertical and one diagonal
// family. The mesh is then trimmed (diagonal edges removed from the end) to
// the requested edge budget, if positive, producing an unstructured edge
// set, and the edges are renumbered by lower endpoint.
func NewTriangulated(rows, cols, edgeBudget int) (*Grid, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("grid: need at least a 2x2 mesh, got %dx%d", rows, cols)
	}
	n := rows * cols
	g := &Grid{
		NumPoints: n,
		X:         make([]float64, n),
		Y:         make([]float64, n),
		Area:      make([]float64, n),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := r*cols + c
			// Slightly perturbed coordinates make the mesh "unstructured"
			// without destroying positivity of areas: the perturbation is a
			// deterministic function of the index.
			dx := 0.15 * math.Sin(float64(7*p%13))
			dy := 0.15 * math.Cos(float64(5*p%17))
			if r == 0 || c == 0 || r == rows-1 || c == cols-1 {
				dx, dy = 0, 0 // keep the boundary regular
			}
			g.X[p] = float64(c) + dx
			g.Y[p] = float64(r) + dy
			g.Area[p] = 1.0
		}
	}
	addEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		g.EdgeFrom = append(g.EdgeFrom, int32(a))
		g.EdgeTo = append(g.EdgeTo, int32(b))
	}
	// Horizontal and vertical lattice edges.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := r*cols + c
			if c+1 < cols {
				addEdge(p, p+1)
			}
			if r+1 < rows {
				addEdge(p, p+cols)
			}
		}
	}
	// Diagonal edges (one per lattice cell) appended last so that trimming
	// to an edge budget removes only diagonals and keeps the mesh connected.
	for r := 0; r+1 < rows; r++ {
		for c := 0; c+1 < cols; c++ {
			p := r*cols + c
			if (r+c)%2 == 0 {
				addEdge(p, p+cols+1)
			} else {
				addEdge(p+1, p+cols)
			}
		}
	}
	if edgeBudget > 0 {
		if edgeBudget < rows*(cols-1)+cols*(rows-1) {
			return nil, fmt.Errorf("grid: edge budget %d below the lattice minimum %d", edgeBudget, rows*(cols-1)+cols*(rows-1))
		}
		if edgeBudget > len(g.EdgeFrom) {
			return nil, fmt.Errorf("grid: edge budget %d exceeds the %d edges of a %dx%d triangulation", edgeBudget, len(g.EdgeFrom), rows, cols)
		}
		g.EdgeFrom = g.EdgeFrom[:edgeBudget]
		g.EdgeTo = g.EdgeTo[:edgeBudget]
	}
	g.sortEdgesByFrom()
	g.computeNormals()
	g.buildAdjacency()
	return g, nil
}

// NewPaperGrid builds a synthetic grid with exactly the paper's 5568 points
// and 16399 edges (a 64×87 lattice whose triangulation has 16403 edges,
// trimmed by four diagonals to the paper's edge count).
func NewPaperGrid() (*Grid, error) {
	const rows, cols = 64, 87
	if rows*cols != PaperPoints {
		return nil, fmt.Errorf("grid: internal error, %d×%d != %d", rows, cols, PaperPoints)
	}
	return NewTriangulated(rows, cols, PaperEdges)
}

// sortEdgesByFrom renumbers the edges by their lower endpoint EdgeFrom, with
// a stable counting sort (edges sharing EdgeFrom keep their order); the
// package doc says why.
func (g *Grid) sortEdgesByFrom() {
	start := make([]int32, g.NumPoints+1)
	for _, a := range g.EdgeFrom {
		start[a+1]++
	}
	for p := 0; p < g.NumPoints; p++ {
		start[p+1] += start[p]
	}
	from := make([]int32, len(g.EdgeFrom))
	to := make([]int32, len(g.EdgeTo))
	for e, a := range g.EdgeFrom {
		k := start[a]
		start[a]++
		from[k], to[k] = a, g.EdgeTo[e]
	}
	g.EdgeFrom, g.EdgeTo = from, to
}

// computeNormals derives an edge "normal" (direction scaled by an effective
// face length) for the finite-volume update.
func (g *Grid) computeNormals() {
	m := g.NumEdges()
	g.EdgeNX = make([]float64, m)
	g.EdgeNY = make([]float64, m)
	for e := 0; e < m; e++ {
		a, b := g.EdgeFrom[e], g.EdgeTo[e]
		dx := g.X[b] - g.X[a]
		dy := g.Y[b] - g.Y[a]
		l := math.Hypot(dx, dy)
		if l == 0 {
			l = 1
		}
		// The dual face crossing the edge is approximated as having unit
		// length; its normal is the edge direction.
		g.EdgeNX[e] = dx / l
		g.EdgeNY[e] = dy / l
	}
}

// buildAdjacency fills the CSR incidence structure.
func (g *Grid) buildAdjacency() {
	n := g.NumPoints
	counts := make([]int32, n+1)
	for e := 0; e < g.NumEdges(); e++ {
		counts[g.EdgeFrom[e]+1]++
		counts[g.EdgeTo[e]+1]++
	}
	for p := 0; p < n; p++ {
		counts[p+1] += counts[p]
	}
	g.IncidentStart = counts
	g.IncidentEdges = make([]int32, counts[n])
	cursor := make([]int32, n)
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.EdgeFrom[e], g.EdgeTo[e]
		g.IncidentEdges[g.IncidentStart[a]+cursor[a]] = int32(e)
		cursor[a]++
		g.IncidentEdges[g.IncidentStart[b]+cursor[b]] = int32(e)
		cursor[b]++
	}
}

// Degree returns the number of edges incident to point p.
func (g *Grid) Degree(p int) int {
	return int(g.IncidentStart[p+1] - g.IncidentStart[p])
}

// Validate checks structural invariants: edge endpoints in range, no self
// edges, adjacency consistent with the edge list, positive areas.
func (g *Grid) Validate() error {
	n := g.NumPoints
	if len(g.X) != n || len(g.Y) != n || len(g.Area) != n {
		return fmt.Errorf("grid: coordinate arrays have wrong length")
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.EdgeFrom[e], g.EdgeTo[e]
		if a < 0 || int(a) >= n || b < 0 || int(b) >= n {
			return fmt.Errorf("grid: edge %d endpoints (%d,%d) out of range", e, a, b)
		}
		if a == b {
			return fmt.Errorf("grid: edge %d is a self loop on point %d", e, a)
		}
	}
	for p := 0; p < n; p++ {
		if g.Area[p] <= 0 {
			return fmt.Errorf("grid: point %d has non-positive area %g", p, g.Area[p])
		}
	}
	var incident int64
	for p := 0; p < n; p++ {
		for _, e := range g.IncidentEdges[g.IncidentStart[p]:g.IncidentStart[p+1]] {
			if g.EdgeFrom[e] != int32(p) && g.EdgeTo[e] != int32(p) {
				return fmt.Errorf("grid: adjacency lists edge %d at point %d, but the edge does not touch it", e, p)
			}
			incident++
		}
	}
	if incident != 2*int64(g.NumEdges()) {
		return fmt.Errorf("grid: adjacency covers %d incidences, want %d", incident, 2*g.NumEdges())
	}
	return nil
}
