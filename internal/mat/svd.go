package mat

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ with
// U (m×k), S (k, descending), V (n×k), k = min(m,n).
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVDecompose computes the thin SVD of a using the one-sided Jacobi
// algorithm, which is simple, robust, and accurate for the modest
// dimensions fingerprint matrices have (tens of links x hundreds of cells).
//
// For wide matrices (m < n) the decomposition is computed on the transpose
// and the factors swapped back.
func SVDecompose(a *Matrix) *SVD {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &SVD{U: New(m, 0), S: nil, V: New(n, 0)}
	}
	if m < n {
		s := SVDecompose(a.T())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	// One-sided Jacobi: orthogonalize columns of W = A·V by plane rotations.
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 60
	eps := 1e-12
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					app += wp * wp
					aqq += wq * wq
					apq += wp * wq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation zeroing the (p,q) Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - s*wq
					w.data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Singular values are the column norms of W; U = W normalized.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.data[i*n+j] * w.data[i*n+j]
		}
		s[j] = math.Sqrt(norm)
	}
	// Sort descending, permuting U and V columns accordingly.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	u := New(m, n)
	vOut := New(n, n)
	sOut := make([]float64, n)
	for k, j := range idx {
		sOut[k] = s[j]
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := 0; i < m; i++ {
				u.data[i*n+k] = w.data[i*n+j] * inv
			}
		}
		for i := 0; i < n; i++ {
			vOut.data[i*n+k] = v.data[i*n+j]
		}
	}
	return &SVD{U: u, S: sOut, V: vOut}
}

// EnergyRank returns the smallest k whose leading singular values capture
// at least frac of the total squared spectral energy. This is the rank
// estimator TafLoc uses to size the factorization and the reference set.
func (s *SVD) EnergyRank(frac float64) int {
	var total float64
	for _, v := range s.S {
		total += v * v
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for k, v := range s.S {
		acc += v * v
		if acc >= frac*total {
			return k + 1
		}
	}
	return len(s.S)
}

// Truncate returns rank-r factors L = U_r·Σ_r^½ and R = V_r·Σ_r^½ such
// that L·Rᵀ is the best rank-r approximation of the original matrix.
func (s *SVD) Truncate(r int) (l, rm *Matrix) {
	if r > len(s.S) {
		r = len(s.S)
	}
	m := s.U.Rows()
	n := s.V.Rows()
	l = New(m, r)
	rm = New(n, r)
	for k := 0; k < r; k++ {
		sq := math.Sqrt(s.S[k])
		for i := 0; i < m; i++ {
			l.data[i*r+k] = s.U.At(i, k) * sq
		}
		for i := 0; i < n; i++ {
			rm.data[i*r+k] = s.V.At(i, k) * sq
		}
	}
	return l, rm
}
