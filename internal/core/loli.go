package core

import (
	"context"
	"fmt"
	"math"

	"tafloc/internal/mat"
	"tafloc/taflocerr"
)

// LoLiOptions are the hyperparameters of the LoLi-IR reconstruction
// algorithm (the paper's alternating iterative solver over the low-rank
// factors L and R, hence "Low-rank / Linear-representation Iterative
// Reconstruction").
type LoLiOptions struct {
	// Rank is the factorization rank r. Zero lets the solver pick the
	// energy rank of the initializer (clamped to [2, n]).
	Rank int
	// Lambda is the Tikhonov weight on ‖L‖²+‖R‖² (the rank surrogate).
	Lambda float64
	// Alpha weights the linear-representation term ‖X̂ - X_R·Z‖².
	Alpha float64
	// Beta weights the along-link continuity term (G).
	Beta float64
	// Gamma weights the adjacent-link similarity term (H).
	Gamma float64
	// Mu is the ridge used in the closed-form Z update.
	Mu float64
	// MaxIter bounds the outer alternations; Tol stops early when the
	// relative objective decrease falls below it.
	MaxIter int
	Tol     float64
	// CGTol and CGMaxIter control the inner conjugate-gradient solves.
	CGTol     float64
	CGMaxIter int
}

// DefaultLoLiOptions returns the hyperparameters used in the
// reproduction's experiments.
func DefaultLoLiOptions() LoLiOptions {
	return LoLiOptions{
		Rank:      0,
		Lambda:    0.05,
		Alpha:     0.6,
		Beta:      0.35,
		Gamma:     0.15,
		Mu:        1e-2,
		MaxIter:   40,
		Tol:       1e-5,
		CGTol:     1e-7,
		CGMaxIter: 120,
	}
}

// Validate reports the first invalid option, or nil.
func (o LoLiOptions) Validate() error {
	for _, v := range [...]float64{o.Lambda, o.Alpha, o.Beta, o.Gamma, o.Mu, o.Tol, o.CGTol} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: LoLi weights and tolerances must be finite, have %g", v)
		}
	}
	switch {
	case o.Lambda < 0 || o.Alpha < 0 || o.Beta < 0 || o.Gamma < 0 || o.Mu < 0:
		return fmt.Errorf("core: LoLi weights must be non-negative")
	case o.Rank < 0:
		return fmt.Errorf("core: negative rank %d", o.Rank)
	case o.Lambda == 0 && o.Alpha == 0:
		return fmt.Errorf("core: need Lambda or Alpha positive for a well-posed problem")
	}
	return nil
}

// UpdateInput bundles the cheap measurements a TafLoc update consumes.
type UpdateInput struct {
	// RefIdx are the reference cell indices (ascending, distinct).
	RefIdx []int
	// RefCols is M x len(RefIdx): freshly measured fingerprint columns at
	// the reference locations.
	RefCols *mat.Matrix
	// Vacant is the fresh empty-room RSS per link (length M), filling the
	// undistorted entries.
	Vacant []float64
}

// Validate checks the input against a layout.
func (u UpdateInput) Validate(l *Layout) error {
	if len(u.RefIdx) == 0 {
		return fmt.Errorf("core: no reference locations")
	}
	if u.RefCols == nil || u.RefCols.Rows() != l.M() || u.RefCols.Cols() != len(u.RefIdx) {
		return fmt.Errorf("core: RefCols must be %dx%d", l.M(), len(u.RefIdx))
	}
	if len(u.Vacant) != l.M() {
		return fmt.Errorf("core: Vacant must have length %d, got %d", l.M(), len(u.Vacant))
	}
	seen := make(map[int]bool)
	for _, j := range u.RefIdx {
		if j < 0 || j >= l.N() {
			return fmt.Errorf("core: reference cell %d out of range %d", j, l.N())
		}
		if seen[j] {
			return fmt.Errorf("core: duplicate reference cell %d", j)
		}
		seen[j] = true
	}
	return nil
}

// Reconstruction is the result of one LoLi-IR run.
type Reconstruction struct {
	// X is the reconstructed M x N fingerprint matrix.
	X *mat.Matrix
	// Observed marks which entries of X were measured (1) rather than
	// inferred (0): the undistorted entries plus the reference columns.
	// Matchers use it to weight trusted entries above reconstructed ones.
	Observed *mat.Matrix
	// Rank is the factorization rank used.
	Rank int
	// Iterations is the number of outer alternations performed.
	Iterations int
	// Objective traces the objective value after every iteration.
	Objective []float64
	// Converged reports whether the relative-decrease tolerance was met.
	Converged bool
}

// Reconstructor runs LoLi-IR for one layout, reusing the precomputed mask
// and smoothness structure across updates.
type Reconstructor struct {
	layout   *Layout
	opts     LoLiOptions
	mask     *mat.Matrix
	smoother *Smoother
}

// NewReconstructorWithMask builds a Reconstructor over an explicit
// undistorted-entry mask (1 = undistorted).
func NewReconstructorWithMask(l *Layout, mask *mat.Matrix, opts LoLiOptions) (*Reconstructor, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if mask == nil || mask.Rows() != l.M() || mask.Cols() != l.N() {
		return nil, fmt.Errorf("core: mask must be %dx%d", l.M(), l.N())
	}
	return &Reconstructor{
		layout:   l,
		opts:     opts,
		mask:     mask.Clone(),
		smoother: NewSmootherFromMask(mask, l.Grid),
	}, nil
}

// Mask returns the undistorted-entry mask in use (not a copy; treat as
// read-only).
func (rc *Reconstructor) Mask() *mat.Matrix { return rc.mask }

// Layout returns the layout the reconstructor was built for.
func (rc *Reconstructor) Layout() *Layout { return rc.layout }

// ReconstructContext runs LoLi-IR on the given update measurements and
// returns the reconstructed fingerprint matrix.
//
// The observation set is the union of (a) undistorted entries, valued at
// the fresh vacant capture, and (b) every entry of the reference columns.
// The solver alternates: closed-form ridge update of the correlation
// matrix Z, then conjugate-gradient solves of the two factor subproblems.
// The alternation allocates no matrix: it writes into one workspace
// allocated when the call starts.
//
// Implementation note: internally the solver works in attenuation space,
// A = vacant·1ᵀ - X. The affine shift leaves the paper's objective
// unchanged (every term is translation-covariant once X_I and X_R are
// shifted identically) but removes the large shared baseline, so the
// low-rank structure the factorization captures is the target-induced
// distortion pattern itself rather than a rank-1 baseline that would
// otherwise dominate the spectrum and defeat rank selection.
//
// ctx is checked before the expensive initialization and once per outer
// alternation, so a long LoLi-IR run on a large deployment terminates
// within one iteration of the context being cancelled. The returned
// error wraps ctx.Err() and carries taflocerr.CodeCancelled.
func (rc *Reconstructor) ReconstructContext(ctx context.Context, in UpdateInput) (*Reconstruction, error) {
	l := rc.layout
	if err := in.Validate(l); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, taflocerr.Errorf(taflocerr.CodeCancelled, "core: reconstruction cancelled: %w", err)
	}
	m, n := l.M(), l.N()
	o := rc.opts

	// Observation mask and values, in attenuation space: undistorted
	// entries observe zero attenuation; reference columns observe
	// vacant - measured.
	obs := rc.mask.Clone() // 1 = observed
	xi := mat.New(m, n)
	for k, j := range in.RefIdx {
		for i := 0; i < m; i++ {
			obs.Set(i, j, 1)
			xi.Set(i, j, in.Vacant[i]-in.RefCols.At(i, k))
		}
	}

	// Reference matrix in attenuation space.
	xr := mat.New(m, len(in.RefIdx))
	for k := range in.RefIdx {
		for i := 0; i < m; i++ {
			xr.Set(i, k, in.Vacant[i]-in.RefCols.At(i, k))
		}
	}

	// ---- Initialization ----
	// Fill unobserved entries per column by ridge regression of the
	// observed rows onto the reference columns, then truncate by SVD.
	x0 := rc.initialize(obs, xi, xr)
	svd := mat.SVDecompose(x0)
	rank := o.Rank
	if rank <= 0 {
		// In attenuation space the spectrum directly reflects the
		// distortion structure, so a high energy fraction recovers the
		// true rank; keep one slack dimension for drift.
		rank = svd.EnergyRank(0.995) + 1
		if rank < 2 {
			rank = 2
		}
	}
	maxRank := len(svd.S)
	if rank > maxRank {
		rank = maxRank
	}
	lf, rf := svd.Truncate(rank)

	// Every step of the alternation below writes into ws; CG updates lf
	// and rf in place.
	ws := newWorkspace(m, n, rank, len(in.RefIdx))
	mat.HadamardInto(ws.obsXi, obs, xi)

	// Z's ridge system X_RᵀX_R + μI is fixed for the run: factor it once.
	ridge, err := mat.NewRidge(xr, o.Mu)
	if err != nil {
		return nil, fmt.Errorf("core: initial Z solve: %w", err)
	}
	// Initial Z against the initial estimate.
	mat.MulTInto(ws.xhat, lf, rf)
	ridge.SolveInto(ws.z, ws.xhat)
	mat.MulInto(ws.xrz, xr, ws.z)

	// The factor subproblems' operators: A_L(v) with X̂ = v·Rᵀ (v is
	// M x r), and A_R(v) with X̂ = L·vᵀ (v is N x r).
	opL := func(dst, v *mat.Matrix) {
		mat.MulTInto(ws.xh, v, rf)
		rc.normalX(ws, obs)
		mat.MulInto(dst, ws.acc, rf)
		mat.AXPY(dst, o.Lambda, v)
	}
	opR := func(dst, v *mat.Matrix) {
		mat.MulTInto(ws.xh, lf, v)
		rc.normalX(ws, obs)
		mat.TMulInto(dst, ws.acc, lf)
		mat.AXPY(dst, o.Lambda, v)
	}

	maxIter := o.MaxIter
	if maxIter <= 0 {
		maxIter = 40
	}
	tol := o.Tol
	if tol <= 0 {
		tol = 1e-5
	}

	rec := &Reconstruction{Rank: rank}
	prevObj := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, taflocerr.Errorf(taflocerr.CodeCancelled,
				"core: reconstruction cancelled after %d iterations: %w", iter, err)
		}

		// ---- L update: solve A_L(L) = b_L by CG ----
		mat.MulInto(ws.bL, ws.obsXi, rf)
		mat.MulInto(ws.tL, ws.xrz, rf)
		mat.AXPY(ws.bL, o.Alpha, ws.tL)
		mat.CG(opL, ws.bL, lf, ws.cgL, o.CGTol, o.CGMaxIter)

		// ---- R update: solve A_R(R) = b_R by CG ----
		mat.TMulInto(ws.bR, ws.obsXi, lf)
		mat.TMulInto(ws.tR, ws.xrz, lf)
		mat.AXPY(ws.bR, o.Alpha, ws.tR)
		mat.CG(opR, ws.bR, rf, ws.cgR, o.CGTol, o.CGMaxIter)

		// ---- Z update (closed form) ----
		mat.MulTInto(ws.xhat, lf, rf)
		ridge.SolveInto(ws.z, ws.xhat)
		mat.MulInto(ws.xrz, xr, ws.z)

		obj := rc.objective(ws, lf, rf, obs, xi)
		rec.Objective = append(rec.Objective, obj)
		rec.Iterations = iter + 1
		if prevObj-obj <= tol*math.Max(1, math.Abs(prevObj)) && iter > 0 {
			rec.Converged = true
			break
		}
		prevObj = obj
	}

	// Convert back to fingerprint space: X = vacant·1ᵀ - Â, clamping
	// observed entries exactly — they were measured, not inferred. The
	// last iteration left Â = L·Rᵀ of the final factors in ws.xhat.
	ahat := ws.xhat
	xhat := mat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if obs.At(i, j) == 1 {
				xhat.Set(i, j, in.Vacant[i]-xi.At(i, j))
			} else {
				xhat.Set(i, j, in.Vacant[i]-ahat.At(i, j))
			}
		}
	}
	rec.X = xhat
	rec.Observed = obs
	if !xhat.IsFinite() {
		return nil, fmt.Errorf("core: reconstruction diverged to non-finite values")
	}
	return rec, nil
}

// initialize fills unobserved entries by per-column ridge regression onto
// the reference columns using only that column's observed rows. Columns
// are independent work items, so the fill fans out across the mat worker
// pool: each worker owns a disjoint column range of out, and one slice
// for the observed rows of the column in hand.
func (rc *Reconstructor) initialize(obs, xi, xr *mat.Matrix) *mat.Matrix {
	m, n := xi.Dims()
	out := xi.Clone()
	mat.ParallelFor(n, 8, func(lo, hi int) {
		rows := make([]int, 0, m)
		for j := lo; j < hi; j++ {
			rc.initColumn(obs, xi, xr, out, j, rows)
		}
	})
	return out
}

// initColumn fills the unobserved entries of column j of out, gathering
// the column's observed rows into rows (capacity M).
func (rc *Reconstructor) initColumn(obs, xi, xr, out *mat.Matrix, j int, rows []int) {
	m, nr := xi.Rows(), xr.Cols()
	rows = rows[:0]
	for i := 0; i < m; i++ {
		if obs.At(i, j) == 1 {
			rows = append(rows, i)
		}
	}
	if len(rows) == m {
		return // fully observed
	}
	var zj *mat.Matrix
	if len(rows) >= 1 {
		a := mat.New(len(rows), nr)
		b := mat.New(len(rows), 1)
		for k, i := range rows {
			for c := 0; c < nr; c++ {
				a.Set(k, c, xr.At(i, c))
			}
			b.Set(k, 0, xi.At(i, j))
		}
		if ridge, err := mat.NewRidge(a, 0.5); err == nil {
			zj = mat.New(nr, 1)
			ridge.SolveInto(zj, b)
		}
	}
	for i := 0; i < m; i++ {
		if obs.At(i, j) == 1 {
			continue
		}
		var v float64
		if zj != nil {
			for c := 0; c < nr; c++ {
				v += xr.At(i, c) * zj.At(c, 0)
			}
		} else {
			// No observations in this column at all: fall back to the
			// mean of the reference columns for this link.
			for c := 0; c < nr; c++ {
				v += xr.At(i, c)
			}
			v /= float64(nr)
		}
		out.Set(i, j, v)
	}
}

// workspace holds every buffer one LoLi-IR run's alternation writes. It
// is allocated once per ReconstructContext call from M, N, the rank r
// and the reference count, and every iteration overwrites it in place.
type workspace struct {
	obsXi    *mat.Matrix // B∘X_I, fixed for the run (M x N)
	xhat     *mat.Matrix // L·Rᵀ (M x N)
	xrz      *mat.Matrix // X_R·Z (M x N)
	xh       *mat.Matrix // an operator's X̂ (M x N)
	acc      *mat.Matrix // normalX's output; the objective's residual (M x N)
	lap      *mat.Matrix // a smoother Laplacian (M x N)
	z        *mat.Matrix // correlation matrix Z (refs x N)
	bL, tL   *mat.Matrix // L system's right-hand side and its X_R·Z term (M x r)
	bR, tR   *mat.Matrix // R system's (N x r)
	cgL, cgR *mat.CGWork // CG buffers for the L and R systems
}

func newWorkspace(m, n, r, refs int) *workspace {
	return &workspace{
		obsXi: mat.New(m, n),
		xhat:  mat.New(m, n),
		xrz:   mat.New(m, n),
		xh:    mat.New(m, n),
		acc:   mat.New(m, n),
		lap:   mat.New(m, n),
		z:     mat.New(refs, n),
		bL:    mat.New(m, r),
		tL:    mat.New(m, r),
		bR:    mat.New(n, r),
		tR:    mat.New(n, r),
		cgL:   mat.NewCGWork(m, r),
		cgR:   mat.NewCGWork(n, r),
	}
}

// normalX overwrites ws.acc with the normal operator of the objective's
// X̂ terms applied to ws.xh: B∘X̂ + α·X̂ + β·L_G(X̂) + γ·L_H(X̂). Both
// factor operators chain it between their two products.
func (rc *Reconstructor) normalX(ws *workspace, obs *mat.Matrix) {
	o := rc.opts
	mat.HadamardInto(ws.acc, obs, ws.xh)
	mat.AXPY(ws.acc, o.Alpha, ws.xh)
	if o.Beta > 0 {
		rc.smoother.ApplyGInto(ws.lap, ws.xh)
		mat.AXPY(ws.acc, o.Beta, ws.lap)
	}
	if o.Gamma > 0 {
		rc.smoother.ApplyHInto(ws.lap, ws.xh)
		mat.AXPY(ws.acc, o.Gamma, ws.lap)
	}
}

// objective evaluates the full LoLi-IR objective at the factors lf, rf,
// reading X̂ = L·Rᵀ and X_R·Z from ws.xhat and ws.xrz, which the loop has
// just computed from them.
func (rc *Reconstructor) objective(ws *workspace, lf, rf, obs, xi *mat.Matrix) float64 {
	o := rc.opts
	obj := o.Lambda * (mat.FrobNorm2(lf) + mat.FrobNorm2(rf))
	diff := ws.acc
	mat.SubInto(diff, ws.xhat, xi)
	mat.HadamardInto(diff, obs, diff)
	obj += mat.FrobNorm2(diff)
	mat.SubInto(diff, ws.xhat, ws.xrz)
	obj += o.Alpha * mat.FrobNorm2(diff)
	if o.Beta > 0 {
		obj += o.Beta * rc.smoother.PenaltyG(ws.xhat)
	}
	if o.Gamma > 0 {
		obj += o.Gamma * rc.smoother.PenaltyH(ws.xhat)
	}
	return obj
}
