// Package mat implements the dense linear-algebra substrate used by the
// TafLoc reconstruction pipeline: basic matrix arithmetic, Frobenius
// norms, Householder QR (plain and column-pivoted), one-sided Jacobi
// SVD, Cholesky factorization, ridge least squares, and a matrix-free
// conjugate-gradient solver.
//
// The products and element-wise operations write into a caller's matrix
// (MulInto, MulTInto, TMulInto, HadamardInto, SubInto), so an iterative
// solver reuses one set of buffers; TMul allocates its result and runs
// TMulInto. CG iterates in place on a caller's iterate and CGWork
// buffers, applying an operator func that writes its product into a
// destination. Ridge factors one ridge system once and solves it for
// many right-hand sides.
//
// The package is self-contained (stdlib only) and deterministic: no
// operation consults a random source. All matrices are dense, row-major
// float64. Dimensions are validated eagerly; mismatches panic, because a
// dimension error is a programming bug, not a runtime condition.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix ready to use. Data is stored in
// one contiguous slice so whole-matrix kernels stay cache-friendly.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized r x c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromSlice returns an r x c matrix backed by a copy of data, which must
// have exactly r*c elements in row-major order.
func NewFromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// NewFromRows builds a matrix from a slice of equal-length rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow overwrites row i with v (len(v) must equal Cols).
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// SetCol overwrites column j with v (len(v) must equal Rows).
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// RawRow returns the backing slice for row i without copying. The caller
// must not grow the slice; mutations write through to the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Raw returns the full backing slice (row-major) without copying.
func (m *Matrix) Raw() []float64 { return m.data }

// SubMatrix returns a copy of the block with rows [r0,r1) and cols [c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: submatrix [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SelectCols returns a new matrix assembled from the given columns of m,
// in the order listed. Indices may repeat.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := New(m.rows, len(idx))
	for k, j := range idx {
		if j < 0 || j >= m.cols {
			panic(fmt.Sprintf("mat: SelectCols index %d out of range %d", j, m.cols))
		}
		for i := 0; i < m.rows; i++ {
			out.data[i*out.cols+k] = m.data[i*m.cols+j]
		}
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = mi[j]
		}
	}
	return t
}

// Equal reports whether m and n have identical dimensions and all elements
// within tol of each other.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < maxShow; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.data[i*m.cols+j])
		}
		if m.cols > maxShow {
			b.WriteString(" ...")
		}
	}
	if m.rows > maxShow {
		b.WriteString("; ...")
	}
	b.WriteByte(']')
	return b.String()
}

// Apply replaces every element with f(i, j, v).
func (m *Matrix) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			m.data[i*m.cols+j] = f(i, j, m.data[i*m.cols+j])
		}
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// IsFinite reports whether all entries are finite (no NaN or Inf).
func (m *Matrix) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
