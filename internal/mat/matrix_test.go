package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// mul returns a*b, computed by MulInto into a new matrix.
func mul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

func TestNewDims(t *testing.T) {
	m := New(3, 5)
	if r, c := m.Dims(); r != 3 || c != 5 {
		t.Fatalf("Dims = (%d,%d), want (3,5)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1,2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromSliceAndRows(t *testing.T) {
	a := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !a.Equal(b, 0) {
		t.Fatalf("NewFromSlice and NewFromRows disagree: %v vs %v", a, b)
	}
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %g, want 6", a.At(1, 2))
	}
}

func TestNewFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad slice length did not panic")
		}
	}()
	NewFromSlice(2, 2, []float64{1, 2, 3})
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	m.Add(2, 3, 0.5)
	if got := m.At(2, 3); got != 8 {
		t.Fatalf("after Add, At = %g, want 8", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(5, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRowColCopySemantics(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row returned aliased storage")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col returned aliased storage")
	}
}

func TestSetRowSetCol(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	m.SetCol(0, []float64{1, 2})
	want := NewFromRows([][]float64{{1, 0, 0}, {2, 8, 9}})
	if !m.Equal(want, 0) {
		t.Fatalf("got %v, want %v", m, want)
	}
}

func TestRawRowAliases(t *testing.T) {
	m := New(2, 2)
	m.RawRow(0)[1] = 5
	if m.At(0, 1) != 5 {
		t.Fatal("RawRow must alias backing storage")
	}
}

func TestTranspose(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if r, c := at.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d)", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rng.Intn(6) + 1
		c := rng.Intn(6) + 1
		a := randomMatrix(rng, r, c)
		return a.T().T().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatrixSelectCols(t *testing.T) {
	a := NewFromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	s := a.SubMatrix(1, 3, 1, 3)
	want := NewFromRows([][]float64{{6, 7}, {10, 11}})
	if !s.Equal(want, 0) {
		t.Fatalf("SubMatrix got %v, want %v", s, want)
	}
	sel := a.SelectCols([]int{3, 0})
	wantSel := NewFromRows([][]float64{{4, 1}, {8, 5}, {12, 9}})
	if !sel.Equal(wantSel, 0) {
		t.Fatalf("SelectCols got %v, want %v", sel, wantSel)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 100)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	a := randomMatrix(rand.New(rand.NewSource(2)), 3, 3)
	if !mul(id, a).Equal(a, 1e-15) || !mul(a, id).Equal(a, 1e-15) {
		t.Fatal("identity is not multiplicative identity")
	}
}

func TestApplyFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	m.Apply(func(i, j int, v float64) float64 { return v + float64(i*10+j) })
	want := NewFromRows([][]float64{{3, 4}, {13, 14}})
	if !m.Equal(want, 0) {
		t.Fatalf("got %v, want %v", m, want)
	}
}

func TestIsFinite(t *testing.T) {
	m := New(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(1, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN matrix should not be finite")
	}
	m.Set(1, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf matrix should not be finite")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := New(20, 20)
	if s := big.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestEqualDims(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("matrices of different shape must not be Equal")
	}
}
