package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n, k := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		if !MulT(a, b).Equal(Mul(a, b.T()), 1e-12) {
			t.Fatal("MulT disagrees with explicit transpose")
		}
		c := randomMatrix(rng, k, m)
		d := randomMatrix(rng, k, n)
		if !TMul(c, d).Equal(Mul(c.T(), d), 1e-12) {
			t.Fatal("TMul disagrees with explicit transpose")
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{4, 3}, {2, 1}})
	if got := AddM(a, b); !got.Equal(NewFromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatalf("AddM = %v", got)
	}
	if got := Sub(a, b); !got.Equal(NewFromRows([][]float64{{-3, -1}, {1, 3}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a); !got.Equal(NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestHadamardMaskSemantics(t *testing.T) {
	x := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1, 0}, {0, 1}})
	got := Hadamard(b, x)
	want := NewFromRows([][]float64{{1, 0}, {0, 4}})
	if !got.Equal(want, 0) {
		t.Fatalf("Hadamard = %v, want %v", got, want)
	}
}

func TestAXPY(t *testing.T) {
	a := NewFromRows([][]float64{{1, 1}})
	b := NewFromRows([][]float64{{2, 3}})
	AXPY(a, 2, b)
	if !a.Equal(NewFromRows([][]float64{{5, 7}}), 0) {
		t.Fatalf("AXPY = %v", a)
	}
}

func TestMulVecTMulVec(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 0, -1}
	got := MulVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	y := []float64{1, 1}
	got2 := TMulVec(a, y)
	if got2[0] != 5 || got2[1] != 7 || got2[2] != 9 {
		t.Fatalf("TMulVec = %v", got2)
	}
}

func TestNorms(t *testing.T) {
	a := NewFromRows([][]float64{{3, 0}, {0, 4}})
	if got := FrobNorm(a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobNorm = %g, want 5", got)
	}
	if got := FrobNorm2(a); math.Abs(got-25) > 1e-12 {
		t.Fatalf("FrobNorm2 = %g, want 25", got)
	}
	if got := MaxAbs(Scale(-1, a)); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

func TestDotNorm2(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
}

// Property: matrix multiplication is associative and distributes over
// addition (within floating-point tolerance).
func TestMulPropertyBased(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(_ int64) bool {
		m, n, k, p := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(5)+1
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, k)
		c := randomMatrix(rng, k, p)
		assoc := Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c)), 1e-9)
		d := randomMatrix(rng, n, k)
		dist := Mul(a, AddM(b, d)).Equal(AddM(Mul(a, b), Mul(a, d)), 1e-9)
		return assoc && dist
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(_ int64) bool {
		m, n, k := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, k)
		return Mul(a, b).T().Equal(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is unitarily invariant under transpose and
// satisfies the triangle inequality.
func TestFrobNormProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(_ int64) bool {
		m, n := rng.Intn(6)+1, rng.Intn(6)+1
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, m, n)
		if math.Abs(FrobNorm(a)-FrobNorm(a.T())) > 1e-12 {
			return false
		}
		return FrobNorm(AddM(a, b)) <= FrobNorm(a)+FrobNorm(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIntoKernelsMatchAllocatingForms checks each destination kernel
// against its allocating form bit for bit. out holds NaN before every
// call, so a kernel that accumulates without zeroing out first, or
// leaves an entry unwritten, shows. The shapes straddle the fan-out
// threshold, and a carries zeros to take the kernels' skip branches.
func TestIntoKernelsMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	operand := func(r, c int) *Matrix {
		m := randomMatrix(rng, r, c)
		for i := range m.data {
			if rng.Intn(5) == 0 {
				m.data[i] = 0
			}
		}
		return m
	}
	garbage := func(r, c int) *Matrix {
		m := New(r, c)
		m.Fill(math.NaN())
		return m
	}
	for _, sh := range []struct{ r, k, c int }{{3, 4, 5}, {17, 400, 15}, {400, 17, 15}} {
		a, b := operand(sh.r, sh.k), operand(sh.k, sh.c)
		out := garbage(sh.r, sh.c)
		MulInto(out, a, b)
		sameBits(t, "MulInto", out, Mul(a, b))

		bt := operand(sh.c, sh.k)
		out = garbage(sh.r, sh.c)
		MulTInto(out, a, bt)
		sameBits(t, "MulTInto", out, MulT(a, bt))

		at := operand(sh.k, sh.r)
		out = garbage(sh.r, sh.c)
		TMulInto(out, at, b)
		sameBits(t, "TMulInto", out, TMul(at, b))

		x, y := operand(sh.r, sh.k), operand(sh.r, sh.k)
		out = garbage(sh.r, sh.k)
		HadamardInto(out, x, y)
		sameBits(t, "HadamardInto", out, Hadamard(x, y))
		out = garbage(sh.r, sh.k)
		SubInto(out, x, y)
		sameBits(t, "SubInto", out, Sub(x, y))

		// The element-wise forms may write over an operand.
		yc := y.Clone()
		HadamardInto(yc, x, yc)
		sameBits(t, "HadamardInto over b", yc, Hadamard(x, y))
		xc := x.Clone()
		SubInto(xc, xc, y)
		sameBits(t, "SubInto over a", xc, Sub(x, y))
	}
}

func sameBits(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", op, got.rows, got.cols, want.rows, want.cols)
	}
	for i, v := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d is %v, want %v", op, i, got.data[i], v)
		}
	}
}
