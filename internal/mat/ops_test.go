package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := mul(a, b); !got.Equal(want, 1e-12) {
		t.Fatalf("MulInto = %v, want %v", got, want)
	}
}

func TestMulDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto with mismatched dims did not panic")
		}
	}()
	MulInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n, k := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		abt := New(m, n)
		MulTInto(abt, a, b)
		if !abt.Equal(mul(a, b.T()), 1e-12) {
			t.Fatal("MulTInto disagrees with explicit transpose")
		}
		c := randomMatrix(rng, k, m)
		d := randomMatrix(rng, k, n)
		if !TMul(c, d).Equal(mul(c.T(), d), 1e-12) {
			t.Fatal("TMul disagrees with explicit transpose")
		}
	}
}

// TestAddSubScale checks a+b and 2a through AXPY, and a-b through
// SubInto.
func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{4, 3}, {2, 1}})
	sum := a.Clone()
	AXPY(sum, 1, b)
	if !sum.Equal(NewFromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatalf("a+b = %v", sum)
	}
	diff := New(2, 2)
	SubInto(diff, a, b)
	if !diff.Equal(NewFromRows([][]float64{{-3, -1}, {1, 3}}), 0) {
		t.Fatalf("a-b = %v", diff)
	}
	twice := New(2, 2)
	AXPY(twice, 2, a)
	if !twice.Equal(NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("2a = %v", twice)
	}
}

func TestHadamardMaskSemantics(t *testing.T) {
	x := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1, 0}, {0, 1}})
	got := New(2, 2)
	HadamardInto(got, b, x)
	want := NewFromRows([][]float64{{1, 0}, {0, 4}})
	if !got.Equal(want, 0) {
		t.Fatalf("HadamardInto = %v, want %v", got, want)
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

// TestMulVecTMulVec checks a·x with MulVec and aᵀ·y with TMul, y as a
// one-column matrix.
func TestMulVecTMulVec(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 0, -1}
	got := MulVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	y := NewFromSlice(2, 1, []float64{1, 1})
	if got2 := TMul(a, y); !got2.Equal(NewFromSlice(3, 1, []float64{5, 7, 9}), 0) {
		t.Fatalf("TMul by a vector = %v", got2)
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
	if got := MaxAbs(NewFromRows([][]float64{{-3, 0}, {0, -4}})); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

// TestDotNorm2 checks the inner product CG takes of two matrices, and
// the Euclidean norm FrobNorm gives a vector-shaped one.
func TestDotNorm2(t *testing.T) {
	if dotM(NewFromRows([][]float64{{1, 2}}), NewFromRows([][]float64{{3, 4}})) != 11 {
		t.Fatal("dotM wrong")
	}
	if FrobNorm(NewFromRows([][]float64{{3, 4}})) != 5 {
		t.Fatal("FrobNorm of a vector wrong")
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
		assoc := mul(mul(a, b), c).Equal(mul(a, mul(b, c)), 1e-9)
		d := randomMatrix(rng, n, k)
		bd := b.Clone()
		AXPY(bd, 1, d)
		abad := mul(a, b)
		AXPY(abad, 1, mul(a, d))
		dist := mul(a, bd).Equal(abad, 1e-9)
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
		return mul(a, b).T().Equal(mul(b.T(), a.T()), 1e-10)
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
		ab := a.Clone()
		AXPY(ab, 1, b)
		return FrobNorm(ab) <= FrobNorm(a)+FrobNorm(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIntoKernelsMatchAllocatingForms checks each destination kernel
// bit for bit against an allocating form written here entry by entry.
// Each product entry is one sum over k in k order, the order the kernels
// sum in, so for finite operands the two agree to the bit, zero entries
// included: a kernel that skips a zero term skips adding ±0 to a sum
// that is never -0. out holds NaN before every call, so a kernel that
// accumulates without zeroing out first, or leaves an entry unwritten,
// shows. The shapes straddle the fan-out threshold and mulRange's k
// tile, and a carries zeros to take the kernels' skip branches.
func TestIntoKernelsMatchAllocatingForms(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-for-bit sums are checked on amd64; on %s the compiler may fuse x*y+z into one FMA in one loop and not the other", runtime.GOARCH)
	}
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
	// sum returns the r x c matrix whose (i, j) entry is the sum of
	// term(i, j, k) over k = 0, …, n-1, added in that order.
	sum := func(r, c, n int, term func(i, j, k int) float64) *Matrix {
		m := New(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += term(i, j, k)
				}
				m.data[i*c+j] = s
			}
		}
		return m
	}
	for _, sh := range []struct{ r, k, c int }{{3, 4, 5}, {17, 400, 15}, {400, 17, 15}} {
		a, b := operand(sh.r, sh.k), operand(sh.k, sh.c)
		out := garbage(sh.r, sh.c)
		MulInto(out, a, b)
		sameBits(t, "MulInto", out, sum(sh.r, sh.c, sh.k, func(i, j, k int) float64 {
			return a.At(i, k) * b.At(k, j)
		}))

		bt := operand(sh.c, sh.k)
		out = garbage(sh.r, sh.c)
		MulTInto(out, a, bt)
		sameBits(t, "MulTInto", out, sum(sh.r, sh.c, sh.k, func(i, j, k int) float64 {
			return a.At(i, k) * bt.At(j, k)
		}))

		at := operand(sh.k, sh.r)
		out = garbage(sh.r, sh.c)
		TMulInto(out, at, b)
		sameBits(t, "TMulInto", out, sum(sh.r, sh.c, sh.k, func(i, j, k int) float64 {
			return at.At(k, i) * b.At(k, j)
		}))

		x, y := operand(sh.r, sh.k), operand(sh.r, sh.k)
		prod, diff := New(sh.r, sh.k), New(sh.r, sh.k)
		for i := range x.data {
			prod.data[i] = x.data[i] * y.data[i]
			diff.data[i] = x.data[i] - y.data[i]
		}
		out = garbage(sh.r, sh.k)
		HadamardInto(out, x, y)
		sameBits(t, "HadamardInto", out, prod)
		out = garbage(sh.r, sh.k)
		SubInto(out, x, y)
		sameBits(t, "SubInto", out, diff)

		// The element-wise forms may write over an operand.
		yc := y.Clone()
		HadamardInto(yc, x, yc)
		sameBits(t, "HadamardInto over b", yc, prod)
		xc := x.Clone()
		SubInto(xc, xc, y)
		sameBits(t, "SubInto over a", xc, diff)
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
