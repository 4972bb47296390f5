// Package geom provides the planar geometry primitives the RF simulator
// and localization algorithms share: points, line segments, grids of
// cells, point-to-segment distance, and Fresnel-ellipse membership tests.
//
// All coordinates are metres in a room-local frame with the origin at the
// south-west corner.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D position in metres.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s*p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// Dot returns the inner product of p and q as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String renders the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is the directed line segment from A to B — the line-of-sight
// path of one radio link.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// DistToPoint returns the shortest distance from p to the segment.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := s.A.Add(d.Scale(t))
	return p.Dist(proj)
}

// ExcessPathLength returns |p-A| + |p-B| - |A-B|: how much longer the
// reflected path through p is than the direct path. The k-th Fresnel zone
// boundary is the locus where this equals k*lambda/2, so thresholding the
// excess path length implements an exact Fresnel-ellipse membership test.
func (s Segment) ExcessPathLength(p Point) float64 {
	return p.Dist(s.A) + p.Dist(s.B) - s.Length()
}

// InEllipse reports whether p lies inside the ellipse with foci A, B and
// excess-path-length parameter excess (i.e. within the Fresnel zone whose
// boundary has that excess). excess must be positive.
func (s Segment) InEllipse(p Point, excess float64) bool {
	return s.ExcessPathLength(p) <= excess
}

// Grid divides a rectangular monitoring area into square cells of side
// CellSize, indexed 0..Cells()-1 in row-major order (x fastest). This is
// the location discretization of the fingerprint matrix: one matrix
// column per cell.
type Grid struct {
	Width, Height float64 // area extent in metres
	CellSize      float64 // cell side in metres
	nx, ny        int
}

// NewGrid returns a grid covering width x height metres with square cells
// of side cellSize. Partial cells at the far edges are dropped, matching
// the paper's 96 cells of 0.6 m in a subset of the 12 m x 9 m room.
func NewGrid(width, height, cellSize float64) (*Grid, error) {
	if width <= 0 || height <= 0 || cellSize <= 0 {
		return nil, fmt.Errorf("geom: invalid grid %gx%g cell %g", width, height, cellSize)
	}
	if cellSize > width || cellSize > height {
		return nil, fmt.Errorf("geom: cell size %g exceeds area %gx%g", cellSize, width, height)
	}
	return &Grid{
		Width: width, Height: height, CellSize: cellSize,
		nx: int(width / cellSize), ny: int(height / cellSize),
	}, nil
}

// NX returns the number of cells along x.
func (g *Grid) NX() int { return g.nx }

// NY returns the number of cells along y.
func (g *Grid) NY() int { return g.ny }

// Cells returns the total number of cells N.
func (g *Grid) Cells() int { return g.nx * g.ny }

// Center returns the centre point of cell j.
func (g *Grid) Center(j int) Point {
	g.checkCell(j)
	ix := j % g.nx
	iy := j / g.nx
	return Point{
		X: (float64(ix) + 0.5) * g.CellSize,
		Y: (float64(iy) + 0.5) * g.CellSize,
	}
}

// CellAt returns the index of the cell containing p, or -1 when p lies
// outside the gridded area.
func (g *Grid) CellAt(p Point) int {
	ix := int(math.Floor(p.X / g.CellSize))
	iy := int(math.Floor(p.Y / g.CellSize))
	if ix < 0 || ix >= g.nx || iy < 0 || iy >= g.ny {
		return -1
	}
	return iy*g.nx + ix
}

// Neighbors4 returns the indices of the 4-connected neighbours of cell j
// (used to build the continuity operator G along link paths).
func (g *Grid) Neighbors4(j int) []int {
	g.checkCell(j)
	ix := j % g.nx
	iy := j / g.nx
	out := make([]int, 0, 4)
	if ix > 0 {
		out = append(out, j-1)
	}
	if ix < g.nx-1 {
		out = append(out, j+1)
	}
	if iy > 0 {
		out = append(out, j-g.nx)
	}
	if iy < g.ny-1 {
		out = append(out, j+g.nx)
	}
	return out
}

// CellDist returns the Euclidean distance between the centres of cells
// j1 and j2.
func (g *Grid) CellDist(j1, j2 int) float64 {
	return g.Center(j1).Dist(g.Center(j2))
}

func (g *Grid) checkCell(j int) {
	if j < 0 || j >= g.Cells() {
		panic(fmt.Sprintf("geom: cell %d out of range %d", j, g.Cells()))
	}
}

// OppositeSidePairs places m links whose endpoints sit on the two long
// sides of the area (y=0 and y=h), evenly spaced along x — the deployment
// in the paper's Fig 2. Endpoint k on each side is at
// x = (k+0.5)*w/m.
func OppositeSidePairs(w, h float64, m int) []Segment {
	segs := make([]Segment, m)
	for k := 0; k < m; k++ {
		x := (float64(k) + 0.5) * w / float64(m)
		segs[k] = Segment{A: Point{x, 0}, B: Point{x, h}}
	}
	return segs
}

// CrossedDeployment places m links alternating between vertical
// (side-to-side) and horizontal (end-to-end) orientations so the link
// ellipses tile the whole area; richer geometry than OppositeSidePairs
// and the default used by the testbed.
func CrossedDeployment(w, h float64, m int) []Segment {
	segs := make([]Segment, m)
	nv := (m + 1) / 2
	nh := m - nv
	for k := 0; k < nv; k++ {
		x := (float64(k) + 0.5) * w / float64(nv)
		segs[k] = Segment{A: Point{x, 0}, B: Point{x, h}}
	}
	for k := 0; k < nh; k++ {
		y := (float64(k) + 0.5) * h / float64(nh)
		segs[nv+k] = Segment{A: Point{0, y}, B: Point{w, y}}
	}
	return segs
}
