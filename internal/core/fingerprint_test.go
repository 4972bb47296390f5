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
	if s.GPairs() == 0 {
		t.Fatal("no continuity pairs found")
	}
	if s.HPairs() == 0 {
		t.Fatal("no similarity pairs found")
	}
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
		gx := s.ApplyG(x)
		hx := s.ApplyH(x)
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
	if mat.FrobNorm(s.ApplyG(x)) != 0 || mat.FrobNorm(s.ApplyH(x)) != 0 {
		t.Fatal("Laplacian of constant matrix must vanish")
	}
}

// TestSmootherIntoMatchesApply checks ApplyGInto and ApplyHInto against
// ApplyG and ApplyH bit for bit, with out holding NaN before the call.
func TestSmootherIntoMatchesApply(t *testing.T) {
	l := testLayout(t)
	s := NewSmootherFromMask(l.Mask(), l.Grid)
	rng := rand.New(rand.NewSource(4))
	x := mat.New(l.M(), l.N())
	x.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	out := mat.New(l.M(), l.N())
	for _, c := range []struct {
		name  string
		into  func(out, x *mat.Matrix)
		apply func(x *mat.Matrix) *mat.Matrix
	}{{"G", s.ApplyGInto, s.ApplyG}, {"H", s.ApplyHInto, s.ApplyH}} {
		out.Fill(math.NaN())
		c.into(out, x)
		for i, v := range c.apply(x).Raw() {
			if math.Float64bits(out.Raw()[i]) != math.Float64bits(v) {
				t.Fatalf("Apply%sInto: element %d is %v, want %v", c.name, i, out.Raw()[i], v)
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
	lhs := s.ApplyG(mat.AddM(x, y))
	rhs := mat.AddM(s.ApplyG(x), s.ApplyG(y))
	if !lhs.Equal(rhs, 1e-10) {
		t.Fatal("ApplyG is not linear")
	}
	lhsH := s.ApplyH(mat.AddM(x, y))
	rhsH := mat.AddM(s.ApplyH(x), s.ApplyH(y))
	if !lhsH.Equal(rhsH, 1e-10) {
		t.Fatal("ApplyH is not linear")
	}
}
