package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD returns a random symmetric positive-definite n x n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n+2, n)
	g := TMul(a, a)
	for i := 0; i < n; i++ {
		g.Add(i, i, 0.5)
	}
	return g
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(8) + 1
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !mul(l, l.T()).Equal(a, 1e-9) {
			t.Fatal("L*Lt != A")
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

// TestCholeskySolveVec solves for one right-hand side vector, given to
// CholeskySolve as a one-column matrix.
func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := func(_ int64) bool {
		n := rng.Intn(7) + 1
		a := randomSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := NewFromSlice(n, 1, MulVec(a, xTrue))
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholeskySolve(l, b).Col(0)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-7*math.Max(1, math.Abs(xTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 5
	a := randomSPD(rng, n)
	xTrue := randomMatrix(rng, n, 3)
	b := mul(a, xTrue)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(l, b)
	if !x.Equal(xTrue, 1e-7) {
		t.Fatal("matrix solve mismatch")
	}
}

func TestRidgeSolveMatchesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := randomMatrix(rng, 10, 4)
	b := randomMatrix(rng, 10, 6)
	mu := 0.3
	r, err := NewRidge(a, mu)
	if err != nil {
		t.Fatal(err)
	}
	z := New(4, 6)
	r.SolveInto(z, b)
	// Verify residual of normal equations: (AtA + mu I) Z = At B.
	g := TMul(a, a)
	for i := 0; i < 4; i++ {
		g.Add(i, i, mu)
	}
	if !mul(g, z).Equal(TMul(a, b), 1e-8) {
		t.Fatal("ridge normal equations violated")
	}
}

func TestRidgeSolveRankDeficientWithZeroMu(t *testing.T) {
	// Duplicate columns make AtA singular; the retry bump must rescue it.
	a := New(6, 3)
	col := []float64{1, 2, 3, 4, 5, 6}
	a.SetCol(0, col)
	a.SetCol(1, col)
	a.SetCol(2, []float64{1, 0, 0, 0, 0, 0})
	b := New(6, 1)
	b.SetCol(0, col)
	r, err := NewRidge(a, 0)
	if err != nil {
		t.Fatalf("NewRidge failed on rank-deficient input: %v", err)
	}
	z := New(3, 1)
	r.SolveInto(z, b)
	if !z.IsFinite() {
		t.Fatal("non-finite solution")
	}
}

func TestRidgeSolveShrinksWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	a := randomMatrix(rng, 12, 4)
	b := randomMatrix(rng, 12, 2)
	var norms [2]float64
	for k, mu := range []float64{0.01, 100} {
		r, err := NewRidge(a, mu)
		if err != nil {
			t.Fatal(err)
		}
		z := New(4, 2)
		r.SolveInto(z, b)
		norms[k] = FrobNorm(z)
	}
	if norms[1] >= norms[0] {
		t.Fatalf("larger ridge should shrink solution: %g vs %g", norms[1], norms[0])
	}
}

// TestRidgeSolveIntoMatchesRidgeSolve checks that one factored Ridge
// solves several right-hand sides into a reused destination with the
// bits a Ridge factored for each alone gives.
func TestRidgeSolveIntoMatchesRidgeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randomMatrix(rng, 17, 6)
	r, err := NewRidge(a, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	x := New(6, 40)
	for trial := 0; trial < 3; trial++ {
		b := randomMatrix(rng, 17, 40)
		x.Fill(math.NaN())
		r.SolveInto(x, b)
		fresh, err := NewRidge(a, 1e-2)
		if err != nil {
			t.Fatal(err)
		}
		want := New(6, 40)
		fresh.SolveInto(want, b)
		sameBits(t, "Ridge.SolveInto", x, want)
	}
}

func TestRidgeSolveErrors(t *testing.T) {
	if _, err := NewRidge(New(3, 2), -1); err == nil {
		t.Fatal("expected negative-mu error")
	}
	r, err := NewRidge(New(3, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a rows-mismatch panic")
		}
	}()
	r.SolveInto(New(2, 2), New(4, 2))
}

func TestCGSolvesSPDSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	n := 8
	a := randomSPD(rng, n)
	xTrue := randomMatrix(rng, n, 2)
	b := mul(a, xTrue)
	op := func(dst, x *Matrix) { MulInto(dst, a, x) }
	x := New(n, 2)
	res := CG(op, b, x, NewCGWork(n, 2), 1e-10, 500)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if !x.Equal(xTrue, 1e-6) {
		t.Fatal("CG solution mismatch")
	}
}

func TestCGMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(_ int64) bool {
		n := rng.Intn(6) + 2
		a := randomSPD(rng, n)
		b := randomMatrix(rng, n, 1)
		op := func(dst, x *Matrix) { MulInto(dst, a, x) }
		xcg := New(n, 1)
		res := CG(op, b, xcg, NewCGWork(n, 1), 1e-12, 1000)
		if !res.Converged {
			return false
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		xch := CholeskySolve(l, b)
		for i := 0; i < n; i++ {
			if math.Abs(xcg.At(i, 0)-xch.At(i, 0)) > 1e-6*math.Max(1, math.Abs(xch.At(i, 0))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCGZeroRHS(t *testing.T) {
	op := func(dst, x *Matrix) { copy(dst.Raw(), x.Raw()) }
	x := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	res := CG(op, New(4, 2), x, NewCGWork(4, 2), 1e-8, 10)
	if !res.Converged || FrobNorm(x) != 0 {
		t.Fatal("CG on zero rhs should return zero immediately")
	}
}

func TestCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	n := 6
	a := randomSPD(rng, n)
	xTrue := randomMatrix(rng, n, 1)
	b := mul(a, xTrue)
	op := func(dst, x *Matrix) { MulInto(dst, a, x) }
	// Warm start from the exact solution: should converge instantly.
	res := CG(op, b, xTrue.Clone(), NewCGWork(n, 1), 1e-8, 100)
	if res.Iterations > 1 {
		t.Fatalf("warm-started CG took %d iterations", res.Iterations)
	}
}

// TestCGAllocatesNothing pins the in-place solve: with a caller's
// buffers and an operator that allocates nothing, CG allocates nothing.
func TestCGAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	b := randomMatrix(rng, 30, 3)
	op := func(dst, x *Matrix) {
		for i, v := range x.data {
			dst.data[i] = float64(1+i%7) * v
		}
	}
	x, w := New(30, 3), NewCGWork(30, 3)
	allocs := testing.AllocsPerRun(10, func() {
		x.Fill(0)
		if res := CG(op, b, x, w, 1e-10, 100); !res.Converged {
			t.Fatalf("CG did not converge: %+v", res)
		}
	})
	if allocs != 0 {
		t.Fatalf("CG allocated %v times per solve", allocs)
	}
}

func TestCGDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randomSPD(rng, 4)
	b := randomMatrix(rng, 4, 1)
	op := func(dst, x *Matrix) { MulInto(dst, a, x) }
	// tol<=0 and maxIter<=0 must fall back to defaults and still work.
	res := CG(op, b, New(4, 1), NewCGWork(4, 1), 0, 0)
	if !res.Converged {
		t.Fatal("CG with default params did not converge")
	}
}
