// Package core implements the TafLoc system itself: the fingerprint
// matrix model, the undistorted-entry mask, reference-location selection
// via rank-revealing QR, the LoLi-IR fingerprint reconstruction algorithm,
// and the location matchers that compare live measurements against the
// reconstructed database.
//
// Terminology follows the paper: the fingerprint matrix X is M links by
// N grid cells; X_R holds freshly measured columns at n reference
// locations; B masks the entries a target at cell j leaves undistorted on
// link i; X_D is the complementary largely-distorted set whose structure
// (continuity along a link, similarity across adjacent links) regularizes
// the reconstruction.
package core

import (
	"fmt"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
)

// Layout captures the deployment geometry the fingerprint matrix is
// defined over. It is immutable after construction.
type Layout struct {
	Links []geom.Segment
	Grid  *geom.Grid
	// EllipseExcess is the excess-path-length threshold (metres) that
	// separates largely-distorted entries from undistorted ones.
	EllipseExcess float64
}

// NewLayout validates and builds a Layout.
func NewLayout(links []geom.Segment, grid *geom.Grid, ellipseExcess float64) (*Layout, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("core: need at least one link")
	}
	if grid == nil {
		return nil, fmt.Errorf("core: nil grid")
	}
	if ellipseExcess <= 0 {
		return nil, fmt.Errorf("core: EllipseExcess must be positive, got %g", ellipseExcess)
	}
	return &Layout{
		Links:         append([]geom.Segment(nil), links...),
		Grid:          grid,
		EllipseExcess: ellipseExcess,
	}, nil
}

// M returns the number of links.
func (l *Layout) M() int { return len(l.Links) }

// N returns the number of grid cells.
func (l *Layout) N() int { return l.Grid.Cells() }

// Distorted reports whether a target at cell j largely distorts link i,
// i.e. whether the cell centre lies inside the link's sensitivity
// ellipse.
func (l *Layout) Distorted(i, j int) bool {
	return l.Links[i].InEllipse(l.Grid.Center(j), l.EllipseExcess)
}

// Mask returns the paper's binary matrix B: B(i,j) = 1 when the RSS of
// link i is undistorted by a target at cell j (so the entry is known from
// a vacant capture), 0 when it belongs to the largely-distorted set X_D.
func (l *Layout) Mask() *mat.Matrix {
	b := mat.New(l.M(), l.N())
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if !l.Distorted(i, j) {
				b.Set(i, j, 1)
			}
		}
	}
	return b
}

// DistortedCount returns the number of largely-distorted entries.
func (l *Layout) DistortedCount() int {
	count := 0
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if l.Distorted(i, j) {
				count++
			}
		}
	}
	return count
}

// MaskFromSurvey derives the paper's mask B empirically from a day-0
// full survey: B(i,j) = 1 (undistorted) when the surveyed fingerprint
// deviates from the vacant baseline by less than thresholdDB. This is
// how a deployed system determines the mask — the true sensitive band of
// a link is shaped by multipath and need not follow the geometric
// Fresnel ellipse. thresholdDB <= 0 defaults to 1 dB.
func MaskFromSurvey(survey *mat.Matrix, vacant []float64, thresholdDB float64) (*mat.Matrix, error) {
	if survey == nil || survey.Rows() == 0 || survey.Cols() == 0 {
		return nil, fmt.Errorf("core: empty survey")
	}
	if len(vacant) != survey.Rows() {
		return nil, fmt.Errorf("core: vacant length %d != links %d", len(vacant), survey.Rows())
	}
	if thresholdDB <= 0 {
		thresholdDB = 1
	}
	b := mat.New(survey.Rows(), survey.Cols())
	for i := 0; i < survey.Rows(); i++ {
		for j := 0; j < survey.Cols(); j++ {
			if abs(survey.At(i, j)-vacant[i]) < thresholdDB {
				b.Set(i, j, 1)
			}
		}
	}
	return b, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// cellPair is an ordered pair of cells adjacent in the grid, both
// distorted for one link.
type cellPair struct{ j1, j2 int }

// linkPair is a pair of links both distorted at one cell.
type linkPair struct{ i1, i2 int }

// Smoother applies the paper's two structural regularizers as linear
// operators on the fingerprint matrix:
//
//   - G (continuity): for every link i and every pair of grid-adjacent
//     cells both on link i's path, the entries should be close —
//     ‖X_D·G‖²_F in the paper's notation.
//   - H (similarity): for every cell j and every pair of links whose
//     paths both cover j, the entries should be close — ‖H·X_D‖²_F.
//
// Both penalties are quadratic forms X ↦ Σ (x_a - x_b)²; Apply*Into
// computes the gradient-defining Laplacian L(X) with penalty = <X, L(X)>.
type Smoother struct {
	m, n     int
	rowPairs [][]cellPair // per link i: adjacent distorted cell pairs
	colPairs [][]linkPair // per cell j: co-distorted link pairs
}

// NewSmootherFromMask precomputes the pair structure from an explicit
// undistorted-entry mask (1 = undistorted, 0 = largely distorted) over
// the given grid.
func NewSmootherFromMask(mask *mat.Matrix, grid *geom.Grid) *Smoother {
	m, n := mask.Dims()
	distorted := func(i, j int) bool { return mask.At(i, j) == 0 }
	s := &Smoother{
		m:        m,
		n:        n,
		rowPairs: make([][]cellPair, m),
		colPairs: make([][]linkPair, n),
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if !distorted(i, j) {
				continue
			}
			for _, nb := range grid.Neighbors4(j) {
				if nb > j && distorted(i, nb) {
					s.rowPairs[i] = append(s.rowPairs[i], cellPair{j, nb})
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 < m; i1++ {
			if !distorted(i1, j) {
				continue
			}
			for i2 := i1 + 1; i2 < m; i2++ {
				if distorted(i2, j) {
					s.colPairs[j] = append(s.colPairs[j], linkPair{i1, i2})
				}
			}
		}
	}
	return s
}

// ApplyGInto overwrites out (M x N, not sharing x's storage) with the
// continuity Laplacian applied to x: the matrix L_G(x) with
// Σ_pairs (x_a-x_b)² = <x, L_G(x)>.
func (s *Smoother) ApplyGInto(out, x *mat.Matrix) {
	clear(out.Raw())
	for i := 0; i < s.m; i++ {
		xi := x.RawRow(i)
		oi := out.RawRow(i)
		for _, p := range s.rowPairs[i] {
			d := xi[p.j1] - xi[p.j2]
			oi[p.j1] += d
			oi[p.j2] -= d
		}
	}
}

// ApplyHInto overwrites out (M x N, not sharing x's storage) with the
// similarity Laplacian applied to x.
func (s *Smoother) ApplyHInto(out, x *mat.Matrix) {
	clear(out.Raw())
	for j := 0; j < s.n; j++ {
		for _, p := range s.colPairs[j] {
			d := x.At(p.i1, j) - x.At(p.i2, j)
			out.Add(p.i1, j, d)
			out.Add(p.i2, j, -d)
		}
	}
}

// PenaltyG returns the continuity penalty Σ (x_a - x_b)².
func (s *Smoother) PenaltyG(x *mat.Matrix) float64 {
	var sum float64
	for i := 0; i < s.m; i++ {
		xi := x.RawRow(i)
		for _, p := range s.rowPairs[i] {
			d := xi[p.j1] - xi[p.j2]
			sum += d * d
		}
	}
	return sum
}

// PenaltyH returns the similarity penalty Σ (x_a - x_b)².
func (s *Smoother) PenaltyH(x *mat.Matrix) float64 {
	var sum float64
	for j := 0; j < s.n; j++ {
		for _, p := range s.colPairs[j] {
			d := x.At(p.i1, j) - x.At(p.i2, j)
			sum += d * d
		}
	}
	return sum
}
