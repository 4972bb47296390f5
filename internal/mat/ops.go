package mat

import (
	"fmt"
	"math"
)

// MulInto overwrites out with a*b, fanning out over the worker pool by
// output row. out must be a.Rows() x b.Cols() and must not share
// storage with a or b.
func MulInto(out, a, b *Matrix) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dstDims("MulInto", out, a.rows, b.cols)
	clear(out.data)
	ParallelFor(a.rows, chunkFor(2*a.cols*b.cols), func(lo, hi int) {
		mulRange(a, b, out, lo, hi)
	})
}

// mulRange accumulates rows [lo, hi) of a*b into out with a
// cache-blocked ikj kernel: k is tiled so the active band of b stays
// resident while the row block streams over it.
func mulRange(a, b, out *Matrix, lo, hi int) {
	const kTile = 128
	for k0 := 0; k0 < a.cols; k0 += kTile {
		k1 := min(k0+kTile, a.cols)
		for i := lo; i < hi; i++ {
			ai := a.data[i*a.cols:]
			oi := out.data[i*out.cols : (i+1)*out.cols]
			for k := k0; k < k1; k++ {
				aik := ai[k]
				if aik == 0 {
					continue
				}
				bk := b.data[k*b.cols : (k+1)*b.cols]
				for j, bv := range bk {
					oi[j] += aik * bv
				}
			}
		}
	}
}

// MulTInto overwrites out with a * bᵀ without materializing the
// transpose, partitioned by output row across the worker pool. out must
// be a.Rows() x b.Rows() and must not share storage with a or b.
func MulTInto(out, a, b *Matrix) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulT dimension mismatch %dx%d * (%dx%d)T", a.rows, a.cols, b.rows, b.cols))
	}
	dstDims("MulTInto", out, a.rows, b.rows)
	ParallelFor(a.rows, chunkFor(2*a.cols*b.rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.data[i*a.cols : (i+1)*a.cols]
			oi := out.data[i*out.cols:]
			for j := 0; j < b.rows; j++ {
				bj := b.data[j*b.cols : (j+1)*b.cols]
				var s float64
				for k, av := range ai {
					s += av * bj[k]
				}
				oi[j] = s
			}
		}
	})
}

// TMul returns aᵀ * b; see TMulInto.
func TMul(a, b *Matrix) *Matrix {
	out := New(a.cols, b.cols)
	TMulInto(out, a, b)
	return out
}

// TMulInto overwrites out with aᵀ * b without materializing the
// transpose, partitioned by output row (a column) across the worker
// pool; every worker streams the shared rows of a and b in the same k
// order as the serial kernel. out must be a.Cols() x b.Cols() and must
// not share storage with a or b.
func TMulInto(out, a, b *Matrix) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: TMul dimension mismatch (%dx%d)T * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dstDims("TMulInto", out, a.cols, b.cols)
	clear(out.data)
	ParallelFor(a.cols, chunkFor(2*a.rows*b.cols), func(lo, hi int) {
		for k := 0; k < a.rows; k++ {
			ak := a.data[k*a.cols : (k+1)*a.cols]
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for i := lo; i < hi; i++ {
				av := ak[i]
				if av == 0 {
					continue
				}
				oi := out.data[i*out.cols : (i+1)*out.cols]
				for j, bv := range bk {
					oi[j] += av * bv
				}
			}
		}
	})
}

// SubInto overwrites out with a - b, element by element; out may be a or
// b.
func SubInto(out, a, b *Matrix) {
	sameDims("Sub", a, b)
	dstDims("SubInto", out, a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
}

// HadamardInto overwrites out with a∘b, element by element; out may be a
// or b.
func HadamardInto(out, a, b *Matrix) {
	sameDims("Hadamard", a, b)
	dstDims("HadamardInto", out, a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
}

// AXPY computes a += s*b in place.
func AXPY(a *Matrix, s float64, b *Matrix) {
	sameDims("AXPY", a, b)
	for i := range a.data {
		a.data[i] += s * b.data[i]
	}
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range ai {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// FrobNorm returns the Frobenius norm ‖a‖_F.
func FrobNorm(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobNorm2 returns the squared Frobenius norm ‖a‖²_F.
func FrobNorm2(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(a *Matrix) float64 {
	var m float64
	for _, v := range a.data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

func sameDims(op string, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

func dstDims(op string, out *Matrix, r, c int) {
	if out.rows != r || out.cols != c {
		panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, out.rows, out.cols, r, c))
	}
}
