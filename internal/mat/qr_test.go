package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		m := rng.Intn(10) + 2
		n := rng.Intn(10) + 1
		a := randomMatrix(rng, m, n)
		f := QRDecompose(a)
		qr := mul(f.Q(), f.R())
		if !qr.Equal(a, 1e-10) {
			t.Fatalf("Q*R != A for %dx%d", m, n)
		}
	}
}

func TestQROrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := func(_ int64) bool {
		m := rng.Intn(8) + 2
		n := rng.Intn(m) + 1
		a := randomMatrix(rng, m, n)
		q := QRDecompose(a).Q()
		qtq := TMul(q, q)
		return qtq.Equal(Identity(q.Cols()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomMatrix(rng, 8, 5)
	r := QRDecompose(a).R()
	for i := 1; i < r.Rows(); i++ {
		for j := 0; j < i && j < r.Cols(); j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R not upper triangular at (%d,%d) = %g", i, j, r.At(i, j))
			}
		}
	}
}

func TestPivotedQRReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 15; trial++ {
		m := rng.Intn(8) + 2
		n := rng.Intn(8) + 1
		a := randomMatrix(rng, m, n)
		f := QRPivoted(a)
		// Build A·P from the pivot permutation and compare against Q·R via
		// the plain factorization of the permuted matrix.
		ap := a.SelectCols(f.Pivot)
		plain := QRDecompose(ap)
		qr := mul(plain.Q(), plain.R())
		if !qr.Equal(ap, 1e-10) {
			t.Fatal("permuted reconstruction failed")
		}
	}
}

func TestPivotedQRDiagonalDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func(_ int64) bool {
		m := rng.Intn(8) + 2
		n := rng.Intn(8) + 1
		a := randomMatrix(rng, m, n)
		qr := QRPivoted(a).qr
		for i := 1; i < min(m, n); i++ {
			// Businger-Golub guarantees non-increasing |r_kk| up to small
			// numerical slack.
			if math.Abs(qr.At(i, i)) > math.Abs(qr.At(i-1, i-1))*(1+1e-8)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPivotedQRRankRevealing checks that R's diagonal drops below
// 1e-9·|r_00| exactly at the rank.
func TestPivotedQRRankRevealing(t *testing.T) {
	// Build an 8x10 matrix of rank 3.
	rng := rand.New(rand.NewSource(38))
	l := randomMatrix(rng, 8, 3)
	r := randomMatrix(rng, 10, 3)
	a := mul(l, r.T())
	qr := QRPivoted(a).qr
	for i := 0; i < 8; i++ {
		if big := math.Abs(qr.At(i, i)) > 1e-9*math.Abs(qr.At(0, 0)); big != (i < 3) {
			t.Fatalf("|r_%d%d| = %g against |r_00| = %g; want rank 3", i, i, qr.At(i, i), qr.At(0, 0))
		}
	}
}

func TestPivotedQRPivotIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	a := randomMatrix(rng, 6, 9)
	piv := QRPivoted(a).Pivot
	seen := make(map[int]bool)
	for _, p := range piv {
		if p < 0 || p >= 9 || seen[p] {
			t.Fatalf("pivot %v is not a permutation", piv)
		}
		seen[p] = true
	}
}

func TestLeadingPivotsPicksIndependentColumns(t *testing.T) {
	// Columns 0 and 1 independent; columns 2..5 are copies of column 0.
	a := New(4, 6)
	base := []float64{1, 2, 3, 4}
	other := []float64{4, -3, 2, -1}
	a.SetCol(0, base)
	a.SetCol(1, other)
	for j := 2; j < 6; j++ {
		a.SetCol(j, base)
	}
	lead := QRPivoted(a).LeadingPivots(2)
	// The two leading pivots must span both directions: one of {0,2,3,4,5}
	// and column 1.
	hasOther := lead[0] == 1 || lead[1] == 1
	if !hasOther {
		t.Fatalf("leading pivots %v do not include the independent column 1", lead)
	}
}

func TestLeadingPivotsClamped(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(40)), 3, 3)
	if got := QRPivoted(a).LeadingPivots(10); len(got) != 3 {
		t.Fatalf("LeadingPivots clamp failed: %d", len(got))
	}
}

func TestPivotedQRZeroMatrix(t *testing.T) {
	qr := QRPivoted(New(4, 4)).qr
	for i := 0; i < 4; i++ {
		if qr.At(i, i) != 0 {
			t.Fatalf("zero matrix has r_%d%d = %g", i, i, qr.At(i, i))
		}
	}
}
