package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input is not
// symmetric positive definite within numerical tolerance.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix a. Only the lower triangle of a is
// read.
func Cholesky(a *Matrix) (*Matrix, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("mat: Cholesky needs a square matrix, have %dx%d", n, c)
	}
	l := New(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// cholSubst overwrites v with the solution of L·Lᵀ·x = v: forward
// substitution L·y = v, then backward substitution Lᵀ·x = y. Each pass
// reads v[i] before it writes it and reads only entries it has already
// written, so both run in place.
func cholSubst(l *Matrix, v []float64) {
	n := len(v)
	for i := 0; i < n; i++ {
		s := v[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * v[k]
		}
		v[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := v[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * v[k]
		}
		v[i] = s / l.At(i, i)
	}
}

// CholeskySolve solves A·X = B column-by-column given the Cholesky factor
// L of A.
func CholeskySolve(l, b *Matrix) *Matrix {
	n := l.Rows()
	if b.Rows() != n {
		panic(fmt.Sprintf("mat: CholeskySolve rows %d != %d", b.Rows(), n))
	}
	x := b.Clone()
	cholSubstCols(l, x, make([]float64, n))
	return x
}

// cholSubstCols overwrites every column of x with the solution of
// L·Lᵀ·y = that column, staging each column through col (length
// x.Rows()).
func cholSubstCols(l, x *Matrix, col []float64) {
	for j := 0; j < x.cols; j++ {
		for i := range col {
			col[i] = x.data[i*x.cols+j]
		}
		cholSubst(l, col)
		for i, v := range col {
			x.data[i*x.cols+j] = v
		}
	}
}

// Ridge solves ridge-regression problems min ‖A·X - B‖²_F + mu‖X‖²_F
// against one fixed A via the normal equations (AᵀA + mu·I)·X = AᵀB.
// NewRidge factors AᵀA + mu·I once with Cholesky; every SolveInto reuses
// the factor and allocates no matrix.
//
// It is the package's one ridge path. LoLi-IR's closed-form update of
// the correlation matrix Z (X̂ ≈ X_R·Z with A = X_R, B = X̂) factors X_R
// once per run, as X_R is fixed for the whole run; its initializer fits
// each column's observed rows with one Ridge.
type Ridge struct {
	a   *Matrix
	l   *Matrix   // Cholesky factor of AᵀA + mu·I
	col []float64 // one column of the solution, solved in place
}

// NewRidge factors AᵀA + mu·I for a.
func NewRidge(a *Matrix, mu float64) (*Ridge, error) {
	if mu < 0 {
		return nil, fmt.Errorf("mat: negative ridge regularizer %g", mu)
	}
	g := TMul(a, a)
	n := g.Rows()
	for i := 0; i < n; i++ {
		g.Add(i, i, mu)
	}
	l, err := Cholesky(g)
	if err != nil {
		// Gram matrix can lose definiteness numerically when mu == 0 and A
		// is rank deficient; bump the ridge and retry once.
		bump := 1e-8 * math.Max(1, MaxAbs(g))
		for i := 0; i < n; i++ {
			g.Add(i, i, bump)
		}
		l, err = Cholesky(g)
		if err != nil {
			return nil, err
		}
	}
	return &Ridge{a: a, l: l, col: make([]float64, n)}, nil
}

// SolveInto overwrites x (A.Cols() x B.Cols()) with the ridge solution
// for b (A.Rows() rows).
func (r *Ridge) SolveInto(x, b *Matrix) {
	TMulInto(x, r.a, b)
	cholSubstCols(r.l, x, r.col)
}

// CGResult reports how a conjugate-gradient solve terminated.
type CGResult struct {
	Iterations int
	Residual   float64 // final ‖r‖_F relative to ‖b‖_F
	Converged  bool
}

// CGWork is the scratch one conjugate-gradient solve iterates with: the
// residual, the search direction and the operator's product, each the
// shape of the system's right-hand side. A caller that solves many
// systems of one shape allocates it once.
type CGWork struct {
	r, p, ap *Matrix
}

// NewCGWork allocates CG scratch for rows x cols systems.
func NewCGWork(rows, cols int) *CGWork {
	return &CGWork{r: New(rows, cols), p: New(rows, cols), ap: New(rows, cols)}
}

// CG solves op(X) = B by conjugate gradients, in place: x holds the
// starting iterate on entry and the solution on return, and w supplies
// every buffer, so a solve allocates nothing. op overwrites dst with the
// operator applied to x (dst has x's shape and does not share its
// storage); it must be symmetric positive (semi-)definite, and is
// applied matrix-free, so the Hessian of one LoLi-IR subproblem is never
// materialized. Iteration stops when the relative residual drops below
// tol or maxIter is reached.
func CG(op func(dst, x *Matrix), b, x *Matrix, w *CGWork, tol float64, maxIter int) CGResult {
	if tol <= 0 {
		tol = 1e-8
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	dstDims("CG iterate", x, b.rows, b.cols)
	dstDims("CG work", w.r, b.rows, b.cols)
	bn := FrobNorm(b)
	if bn == 0 {
		clear(x.data)
		return CGResult{Converged: true}
	}
	r, p, ap := w.r, w.p, w.ap
	op(ap, x)
	SubInto(r, b, ap)
	copy(p.data, r.data)
	rs := FrobNorm2(r)
	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		res.Iterations = k
		rn := math.Sqrt(rs) / bn
		res.Residual = rn
		if rn < tol {
			res.Converged = true
			return res
		}
		op(ap, p)
		den := dotM(p, ap)
		if den <= 0 {
			// Operator lost definiteness numerically; stop with the best
			// iterate so far rather than diverging.
			return res
		}
		alpha := rs / den
		AXPY(x, alpha, p)
		AXPY(r, -alpha, ap)
		rsNew := FrobNorm2(r)
		beta := rsNew / rs
		rs = rsNew
		// p = r + beta*p
		for i, rv := range r.data {
			p.data[i] = rv + beta*p.data[i]
		}
	}
	res.Residual = math.Sqrt(rs) / bn
	res.Converged = res.Residual < tol
	return res
}

func dotM(a, b *Matrix) float64 {
	var s float64
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}
