package mat

import "math"

// QR holds a Householder QR factorization A = Q·R with Q (m×m orthogonal,
// stored implicitly) and R (m×n upper triangular).
type QR struct {
	qr   *Matrix   // packed Householder vectors below diagonal, R on/above
	tau  []float64 // Householder scalar factors
	m, n int
}

// QRDecompose computes the Householder QR factorization of a (m>=n not
// required; wide matrices are handled).
func QRDecompose(a *Matrix) *QR {
	m, n := a.Dims()
	qr := a.Clone()
	k := min(m, n)
	tau := make([]float64, k)
	for j := 0; j < k; j++ {
		houseColumn(qr, j, j, &tau[j])
		applyHouseLeft(qr, j, j+1, tau[j])
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}
}

// houseColumn computes the Householder reflector annihilating column j
// below row r0, storing the vector in place (v[0] implicit 1).
func houseColumn(a *Matrix, r0, j int, tau *float64) {
	m := a.rows
	// norm of the column segment
	var norm float64
	for i := r0; i < m; i++ {
		v := a.At(i, j)
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		*tau = 0
		return
	}
	alpha := a.At(r0, j)
	beta := -math.Copysign(norm, alpha)
	*tau = (beta - alpha) / beta
	scale := 1 / (alpha - beta)
	for i := r0 + 1; i < m; i++ {
		a.Set(i, j, a.At(i, j)*scale)
	}
	a.Set(r0, j, beta)
}

// applyHouseLeft applies the reflector stored in column j (pivot row j) to
// columns [c0, n).
func applyHouseLeft(a *Matrix, j, c0 int, tau float64) {
	if tau == 0 {
		return
	}
	m, n := a.rows, a.cols
	for c := c0; c < n; c++ {
		// w = vᵀ a[:,c] with v = [1, a[j+1:,j]]
		w := a.At(j, c)
		for i := j + 1; i < m; i++ {
			w += a.At(i, j) * a.At(i, c)
		}
		w *= tau
		a.Add(j, c, -w)
		for i := j + 1; i < m; i++ {
			a.Add(i, c, -w*a.At(i, j))
		}
	}
}

// R returns the upper-triangular factor (min(m,n) x n).
func (f *QR) R() *Matrix {
	k := min(f.m, f.n)
	r := New(k, f.n)
	for i := 0; i < k; i++ {
		for j := i; j < f.n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin orthogonal factor (m x min(m,n)).
func (f *QR) Q() *Matrix {
	k := min(f.m, f.n)
	q := New(f.m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	// apply reflectors in reverse order
	for j := k - 1; j >= 0; j-- {
		tau := f.tau[j]
		if tau == 0 {
			continue
		}
		for c := 0; c < k; c++ {
			w := q.At(j, c)
			for i := j + 1; i < f.m; i++ {
				w += f.qr.At(i, j) * q.At(i, c)
			}
			w *= tau
			q.Add(j, c, -w)
			for i := j + 1; i < f.m; i++ {
				q.Add(i, c, -w*f.qr.At(i, j))
			}
		}
	}
	return q
}

// PivotedQR holds a column-pivoted (rank-revealing) QR factorization
// A·P = Q·R computed with the Businger–Golub algorithm. The pivot order is
// the maximal-linear-independence column ordering TafLoc uses to choose
// reference locations.
type PivotedQR struct {
	qr    *Matrix
	tau   []float64
	Pivot []int // Pivot[k] = original column index chosen at step k
	m, n  int
}

// QRPivoted computes the column-pivoted QR factorization of a.
func QRPivoted(a *Matrix) *PivotedQR {
	m, n := a.Dims()
	qr := a.Clone()
	k := min(m, n)
	tau := make([]float64, k)
	piv := make([]int, n)
	for j := range piv {
		piv[j] = j
	}
	// running squared column norms
	norms := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := qr.At(i, j)
			norms[j] += v * v
		}
	}
	for j := 0; j < k; j++ {
		// select the column with the largest remaining norm
		best, bestv := j, norms[j]
		for c := j + 1; c < n; c++ {
			if norms[c] > bestv {
				best, bestv = c, norms[c]
			}
		}
		if best != j {
			swapCols(qr, j, best)
			piv[j], piv[best] = piv[best], piv[j]
			norms[j], norms[best] = norms[best], norms[j]
		}
		houseColumn(qr, j, j, &tau[j])
		applyHouseLeft(qr, j, j+1, tau[j])
		// downdate norms; recompute when cancellation bites
		for c := j + 1; c < n; c++ {
			r := qr.At(j, c)
			norms[c] -= r * r
			if norms[c] < 1e-12*math.Max(1, bestv) {
				norms[c] = 0
				for i := j + 1; i < m; i++ {
					v := qr.At(i, c)
					norms[c] += v * v
				}
			}
		}
	}
	return &PivotedQR{qr: qr, tau: tau, Pivot: piv, m: m, n: n}
}

// LeadingPivots returns the first k pivot column indices — the k most
// linearly independent columns of the original matrix.
func (f *PivotedQR) LeadingPivots(k int) []int {
	if k > len(f.Pivot) {
		k = len(f.Pivot)
	}
	out := make([]int, k)
	copy(out, f.Pivot[:k])
	return out
}

func swapCols(a *Matrix, j1, j2 int) {
	for i := 0; i < a.rows; i++ {
		a.data[i*a.cols+j1], a.data[i*a.cols+j2] = a.data[i*a.cols+j2], a.data[i*a.cols+j1]
	}
}
