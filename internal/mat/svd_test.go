package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSVDReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		m := rng.Intn(10) + 1
		n := rng.Intn(10) + 1
		a := randomMatrix(rng, m, n)
		s := SVDecompose(a)
		us := s.U.Clone()
		us.Apply(func(_, k int, v float64) float64 { return v * s.S[k] })
		if !mul(us, s.V.T()).Equal(a, 1e-9) {
			t.Fatalf("SVD reconstruction failed for %dx%d", m, n)
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := func(_ int64) bool {
		m := rng.Intn(8) + 1
		n := rng.Intn(8) + 1
		a := randomMatrix(rng, m, n)
		s := SVDecompose(a)
		// Columns with nonzero singular value must be orthonormal.
		k := 0
		for k < len(s.S) && s.S[k] > 1e-12*s.S[0] {
			k++
		}
		uu := TMul(s.U, s.U).SubMatrix(0, k, 0, k)
		vv := TMul(s.V, s.V).SubMatrix(0, k, 0, k)
		return uu.Equal(Identity(k), 1e-9) && vv.Equal(Identity(k), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDValuesSortedNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := func(_ int64) bool {
		a := randomMatrix(rng, rng.Intn(8)+1, rng.Intn(8)+1)
		s := SVDecompose(a)
		for i, v := range s.S {
			if v < 0 {
				return false
			}
			if i > 0 && v > s.S[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := NewFromRows([][]float64{{3, 0}, {0, -2}})
	s := SVDecompose(a)
	if math.Abs(s.S[0]-3) > 1e-12 || math.Abs(s.S[1]-2) > 1e-12 {
		t.Fatalf("singular values %v, want [3 2]", s.S)
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	a := randomMatrix(rng, 3, 9)
	s := SVDecompose(a)
	if s.U.Rows() != 3 || s.V.Rows() != 9 {
		t.Fatalf("factor shapes U %dx%d V %dx%d", s.U.Rows(), s.U.Cols(), s.V.Rows(), s.V.Cols())
	}
	us := s.U.Clone()
	us.Apply(func(_, k int, v float64) float64 { return v * s.S[k] })
	if !mul(us, s.V.T()).Equal(a, 1e-9) {
		t.Fatal("wide reconstruction failed")
	}
}

func TestSVDRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	l := randomMatrix(rng, 9, 4)
	r := randomMatrix(rng, 7, 4)
	a := mul(l, r.T())
	s := SVDecompose(a)
	// S descends: the fourth value is above 1e-9·S[0], the fifth below.
	if tol := 1e-9 * s.S[0]; !(s.S[3] > tol && s.S[4] <= tol) {
		t.Fatalf("S = %v, want rank 4", s.S)
	}
}

func TestSVDEnergyRank(t *testing.T) {
	s := &SVD{S: []float64{10, 1, 0.1, 0.01}}
	// total energy = 100 + 1 + 0.01 + 0.0001; sigma1 alone holds >98%.
	if got := s.EnergyRank(0.98); got != 1 {
		t.Fatalf("EnergyRank(0.98) = %d, want 1", got)
	}
	if got := s.EnergyRank(0.9999); got != 2 {
		t.Fatalf("EnergyRank(0.9999) = %d, want 2", got)
	}
	if got := s.EnergyRank(1.0); got != 4 {
		t.Fatalf("EnergyRank(1.0) = %d, want 4", got)
	}
}

func TestSVDEnergyRankZero(t *testing.T) {
	s := SVDecompose(New(3, 3))
	if got := s.EnergyRank(0.95); got != 0 {
		t.Fatalf("EnergyRank of zero matrix = %d, want 0", got)
	}
}

func TestSVDTruncateBestApproximation(t *testing.T) {
	// Eckart-Young: the rank-r truncation error equals the tail singular
	// values' energy.
	rng := rand.New(rand.NewSource(56))
	a := randomMatrix(rng, 8, 6)
	s := SVDecompose(a)
	for r := 1; r <= 6; r++ {
		l, rm := s.Truncate(r)
		if l.Cols() != r || rm.Cols() != r {
			t.Fatalf("truncated factor widths %d,%d want %d", l.Cols(), rm.Cols(), r)
		}
		resid := mul(l, rm.T())
		SubInto(resid, a, resid)
		got := FrobNorm2(resid)
		var want float64
		for k := r; k < len(s.S); k++ {
			want += s.S[k] * s.S[k]
		}
		if math.Abs(got-want) > 1e-8*math.Max(1, want) {
			t.Fatalf("rank-%d truncation error %g, want %g", r, got, want)
		}
	}
}

func TestSVDTruncateClamps(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(57)), 4, 3)
	l, r := SVDecompose(a).Truncate(99)
	if l.Cols() != 3 || r.Cols() != 3 {
		t.Fatal("Truncate did not clamp rank")
	}
}

func TestSVDEmpty(t *testing.T) {
	s := SVDecompose(New(0, 5))
	if len(s.S) != 0 {
		t.Fatal("empty SVD should have no singular values")
	}
}

// Property: singular values are invariant under transpose.
func TestSVDTransposeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	f := func(_ int64) bool {
		a := randomMatrix(rng, rng.Intn(6)+1, rng.Intn(6)+1)
		s1 := SVDecompose(a).S
		s2 := SVDecompose(a.T()).S
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-9*math.Max(1, s1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm equals the l2 norm of the singular values.
func TestSVDFrobeniusIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := func(_ int64) bool {
		a := randomMatrix(rng, rng.Intn(7)+1, rng.Intn(7)+1)
		s := SVDecompose(a)
		norm := FrobNorm(NewFromSlice(1, len(s.S), s.S))
		return math.Abs(FrobNorm(a)-norm) < 1e-9*math.Max(1, FrobNorm(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
