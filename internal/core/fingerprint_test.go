package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
)

func testLayout(t *testing.T) *Layout {
	t.Helper()
	grid, err := geom.NewGrid(7.2, 4.8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(geom.CrossedDeployment(7.2, 4.8, 10), grid, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutValidation(t *testing.T) {
	grid, _ := geom.NewGrid(6, 6, 0.6)
	links := geom.OppositeSidePairs(6, 6, 4)
	if _, err := NewLayout(nil, grid, 0.5); err == nil {
		t.Fatal("accepted empty links")
	}
	if _, err := NewLayout(links, nil, 0.5); err == nil {
		t.Fatal("accepted nil grid")
	}
	if _, err := NewLayout(links, grid, 0); err == nil {
		t.Fatal("accepted zero ellipse excess")
	}
}

func TestMaskConsistentWithDistorted(t *testing.T) {
	l := testLayout(t)
	b := l.Mask()
	count := 0
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			v := b.At(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("mask entry (%d,%d) = %g not binary", i, j, v)
			}
			if (v == 0) != l.Distorted(i, j) {
				t.Fatalf("mask inconsistent at (%d,%d)", i, j)
			}
			if v == 0 {
				count++
			}
		}
	}
	if count != l.DistortedCount() {
		t.Fatalf("DistortedCount %d != mask zeros %d", l.DistortedCount(), count)
	}
	// The distorted set must be a strict, non-empty subset: the matrix is
	// mostly observable but every link has a path.
	if count == 0 || count == l.M()*l.N() {
		t.Fatalf("degenerate distorted count %d of %d", count, l.M()*l.N())
	}
}

func TestDistortedBandFollowsLoS(t *testing.T) {
	l := testLayout(t)
	// Cells on the LoS midpoint must be distorted; far corners must not.
	for i := range l.Links {
		mid := l.Links[i].Midpoint()
		j := l.Grid.CellAt(mid)
		if j >= 0 && !l.Distorted(i, j) {
			t.Fatalf("link %d midpoint cell not distorted", i)
		}
	}
}

func TestSmootherPairCountsPositive(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	var gPairs, hPairs int
	for _, p := range s.rowPairs {
		gPairs += len(p)
	}
	for _, p := range s.colPairs {
		hPairs += len(p)
	}
	if gPairs == 0 {
		t.Fatal("no continuity pairs found")
	}
	if hPairs == 0 {
		t.Fatal("no similarity pairs found")
	}
}

// laplacian returns apply(x) (s.ApplyGInto or s.ApplyHInto) in a new
// matrix.
func laplacian(apply func(out, x *mat.Matrix), x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Dims())
	apply(out, x)
	return out
}

// Property: the smoothness penalties equal the quadratic form of their
// Laplacian operators: penalty(x) = <x, Apply(x)>.
func TestSmootherQuadraticFormIdentity(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	rng := rand.New(rand.NewSource(1))
	f := func(_ int64) bool {
		x := mat.New(l.M(), l.N())
		for i := 0; i < l.M(); i++ {
			for j := 0; j < l.N(); j++ {
				x.Set(i, j, rng.NormFloat64())
			}
		}
		gx := laplacian(s.ApplyGInto, x)
		hx := laplacian(s.ApplyHInto, x)
		var ipG, ipH float64
		for i := 0; i < l.M(); i++ {
			for j := 0; j < l.N(); j++ {
				ipG += x.At(i, j) * gx.At(i, j)
				ipH += x.At(i, j) * hx.At(i, j)
			}
		}
		okG := math.Abs(ipG-s.PenaltyG(x)) < 1e-8*math.Max(1, s.PenaltyG(x))
		okH := math.Abs(ipH-s.PenaltyH(x)) < 1e-8*math.Max(1, s.PenaltyH(x))
		return okG && okH
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSmootherPenaltiesNonNegative(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		x := mat.New(l.M(), l.N())
		x.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() * 10 })
		if s.PenaltyG(x) < 0 || s.PenaltyH(x) < 0 {
			t.Fatal("negative smoothness penalty")
		}
	}
}

func TestSmootherZeroOnConstantMatrix(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	x := mat.New(l.M(), l.N())
	x.Fill(-47)
	if s.PenaltyG(x) != 0 {
		t.Fatal("constant matrix must have zero continuity penalty")
	}
	if s.PenaltyH(x) != 0 {
		t.Fatal("constant matrix must have zero similarity penalty")
	}
	if mat.FrobNorm(laplacian(s.ApplyGInto, x)) != 0 || mat.FrobNorm(laplacian(s.ApplyHInto, x)) != 0 {
		t.Fatal("Laplacian of constant matrix must vanish")
	}
}

// TestSmootherIntoMatchesApply checks ApplyGInto and ApplyHInto entry by
// entry against PenaltyG and PenaltyH, with out holding NaN before the
// call. Each penalty is the quadratic form <x, L(x)> of its symmetric
// Laplacian L, so polarizing it gives every entry of L(x):
// L(x)_k = (penalty(x + e_k) - penalty(x - e_k)) / 4.
func TestSmootherIntoMatchesApply(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	rng := rand.New(rand.NewSource(4))
	x := mat.New(l.M(), l.N())
	x.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	out := mat.New(l.M(), l.N())
	for _, c := range []struct {
		name    string
		into    func(out, x *mat.Matrix)
		penalty func(x *mat.Matrix) float64
	}{{"G", s.ApplyGInto, s.PenaltyG}, {"H", s.ApplyHInto, s.PenaltyH}} {
		out.Fill(math.NaN())
		c.into(out, x)
		xs := x.Raw()
		for k, got := range out.Raw() {
			v := xs[k]
			xs[k] = v + 1
			up := c.penalty(x)
			xs[k] = v - 1
			down := c.penalty(x)
			xs[k] = v
			if want := (up - down) / 4; !(math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))) {
				t.Fatalf("Apply%sInto: element %d is %v, want %v", c.name, k, got, want)
			}
		}
	}
}

func TestSmootherLinearity(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	rng := rand.New(rand.NewSource(3))
	x := mat.New(l.M(), l.N())
	y := mat.New(l.M(), l.N())
	x.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	y.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	xy := x.Clone()
	mat.AXPY(xy, 1, y)
	lhs := laplacian(s.ApplyGInto, xy)
	rhs := laplacian(s.ApplyGInto, x)
	mat.AXPY(rhs, 1, laplacian(s.ApplyGInto, y))
	if !lhs.Equal(rhs, 1e-10) {
		t.Fatal("ApplyGInto is not linear")
	}
	lhsH := laplacian(s.ApplyHInto, xy)
	rhsH := laplacian(s.ApplyHInto, x)
	mat.AXPY(rhsH, 1, laplacian(s.ApplyHInto, y))
	if !lhsH.Equal(rhsH, 1e-10) {
		t.Fatal("ApplyHInto is not linear")
	}
}
