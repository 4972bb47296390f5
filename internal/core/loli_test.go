package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/rf"
)

// syntheticTruth builds a fingerprint-shaped ground truth over a layout:
// per-link vacant baselines minus a smooth attenuation bump along each
// link's path — structurally what the rf package produces, but with
// direct control and no dependence on the channel model.
func syntheticTruth(l *Layout, rng *rand.Rand) (*mat.Matrix, []float64) {
	vac := make([]float64, l.M())
	for i := range vac {
		vac[i] = -45 - 10*rng.Float64()
	}
	x := mat.New(l.M(), l.N())
	for i := 0; i < l.M(); i++ {
		seg := l.Links[i]
		for j := 0; j < l.N(); j++ {
			excess := seg.ExcessPathLength(l.Grid.Center(j))
			atten := 0.0
			if excess <= l.EllipseExcess {
				atten = 8 * math.Exp(-excess/0.25)
			}
			x.Set(i, j, vac[i]-atten)
		}
	}
	return x, vac
}

func makeUpdateInput(l *Layout, truth *mat.Matrix, vac []float64, refs []int) UpdateInput {
	return UpdateInput{
		RefIdx:  refs,
		RefCols: truth.SelectCols(refs),
		Vacant:  vac,
	}
}

func pickRefs(l *Layout, n int) []int {
	// Spread references evenly over the grid.
	refs := make([]int, 0, n)
	step := l.N() / n
	if step < 1 {
		step = 1
	}
	for j := step / 2; j < l.N() && len(refs) < n; j += step {
		refs = append(refs, j)
	}
	return refs
}

func TestLoLiOptionsValidate(t *testing.T) {
	if err := DefaultLoLiOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultLoLiOptions()
	bad.Lambda = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative lambda accepted")
	}
	bad = DefaultLoLiOptions()
	bad.Lambda, bad.Alpha = 0, 0
	if err := bad.Validate(); err == nil {
		t.Fatal("all-zero regularization accepted")
	}
	bad = DefaultLoLiOptions()
	bad.Rank = -2
	if err := bad.Validate(); err == nil {
		t.Fatal("negative rank accepted")
	}
	// Non-finite weights and tolerances; -Inf weights already fail the
	// sign rule.
	bad = DefaultLoLiOptions()
	for name, f := range map[string]*float64{
		"Lambda": &bad.Lambda, "Alpha": &bad.Alpha, "Beta": &bad.Beta, "Gamma": &bad.Gamma,
		"Mu": &bad.Mu, "Tol": &bad.Tol, "CGTol": &bad.CGTol,
	} {
		vs := []float64{math.NaN(), math.Inf(1)}
		if name == "Tol" || name == "CGTol" {
			vs = append(vs, math.Inf(-1))
		}
		for _, v := range vs {
			was := *f
			*f = v
			if err := bad.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
			*f = was
		}
	}
}

func TestUpdateInputValidation(t *testing.T) {
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(1)))
	good := makeUpdateInput(l, truth, vac, pickRefs(l, 10))
	if err := good.Validate(l); err != nil {
		t.Fatal(err)
	}
	cases := []UpdateInput{
		{RefIdx: nil, RefCols: good.RefCols, Vacant: vac},
		{RefIdx: good.RefIdx, RefCols: mat.New(3, 3), Vacant: vac},
		{RefIdx: good.RefIdx, RefCols: good.RefCols, Vacant: vac[:2]},
		{RefIdx: []int{-1}, RefCols: truth.SelectCols([]int{0}), Vacant: vac},
		{RefIdx: []int{5, 5}, RefCols: truth.SelectCols([]int{5, 5}), Vacant: vac},
		{RefIdx: []int{l.N() + 3}, RefCols: truth.SelectCols([]int{0}), Vacant: vac},
	}
	for i, in := range cases {
		if err := in.Validate(l); err == nil {
			t.Fatalf("case %d: invalid input accepted", i)
		}
	}
}

func TestReconstructNoiselessRecovery(t *testing.T) {
	// With noiseless inputs the reconstruction must land well inside the
	// paper's own error band (2.7 dB mean at its freshest epoch). Note a
	// sub-dB result is not attainable even in principle here: the per-link
	// attenuation profiles have disjoint supports, so the attenuation
	// matrix is full rank and the distorted entries of non-reference
	// columns are identified only through the continuity/similarity
	// priors, which bound the floor near ~1.8 dB. The paper's reported
	// 2.7-4.1 dBm errors sit in exactly this regime.
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(2)))
	rc, err := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	if err != nil {
		t.Fatal(err)
	}
	refs, err := SelectReferences(truth, ReferenceOptions{Count: 12})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rc.ReconstructContext(context.Background(), makeUpdateInput(l, truth, vac, refs))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var count int
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if l.Distorted(i, j) {
				sum += math.Abs(rec.X.At(i, j) - truth.At(i, j))
				count++
			}
		}
	}
	meanErr := sum / float64(count)
	if meanErr > 2.2 {
		t.Fatalf("noiseless mean reconstruction error %.3f dB too large", meanErr)
	}
}

func TestReconstructObjectiveNonIncreasing(t *testing.T) {
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(3)))
	rc, err := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rc.ReconstructContext(context.Background(), makeUpdateInput(l, truth, vac, pickRefs(l, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Objective) < 2 {
		t.Fatalf("too few iterations traced: %d", len(rec.Objective))
	}
	for k := 1; k < len(rec.Objective); k++ {
		if rec.Objective[k] > rec.Objective[k-1]*(1+1e-6) {
			t.Fatalf("objective increased at iter %d: %g -> %g", k, rec.Objective[k-1], rec.Objective[k])
		}
	}
}

func TestReconstructObservedEntriesClamped(t *testing.T) {
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(4)))
	rc, _ := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	refs := pickRefs(l, 10)
	in := makeUpdateInput(l, truth, vac, refs)
	rec, err := rc.ReconstructContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Reference columns are measured: must be exact.
	for k, j := range refs {
		for i := 0; i < l.M(); i++ {
			if rec.X.At(i, j) != in.RefCols.At(i, k) {
				t.Fatalf("reference entry (%d,%d) not clamped", i, j)
			}
		}
	}
	// Undistorted entries equal the vacant capture.
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if !l.Distorted(i, j) && !contains(refs, j) {
				if rec.X.At(i, j) != vac[i] {
					t.Fatalf("undistorted entry (%d,%d) not clamped to vacant", i, j)
				}
			}
		}
	}
}

func TestReconstructWithNoisyInput(t *testing.T) {
	l := testLayout(t)
	rng := rand.New(rand.NewSource(5))
	truth, vac := syntheticTruth(l, rng)
	refs := pickRefs(l, 12)
	in := makeUpdateInput(l, truth, vac, refs)
	// Corrupt inputs with 0.3 dB noise (post survey averaging).
	in.RefCols.Apply(func(i, j int, v float64) float64 { return v + 0.3*rng.NormFloat64() })
	noisyVac := append([]float64(nil), vac...)
	for i := range noisyVac {
		noisyVac[i] += 0.3 * rng.NormFloat64()
	}
	in.Vacant = noisyVac
	rc, _ := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	rec, err := rc.ReconstructContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var count int
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if l.Distorted(i, j) {
				sum += math.Abs(rec.X.At(i, j) - truth.At(i, j))
				count++
			}
		}
	}
	if meanErr := sum / float64(count); meanErr > 2.8 {
		t.Fatalf("noisy mean reconstruction error %.3f dB too large", meanErr)
	}
}

func TestReconstructForcedRank(t *testing.T) {
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(6)))
	opts := DefaultLoLiOptions()
	opts.Rank = 3
	rc, err := NewReconstructorWithMask(l, l.Mask(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rc.ReconstructContext(context.Background(), makeUpdateInput(l, truth, vac, pickRefs(l, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rank != 3 {
		t.Fatalf("Rank = %d, want 3", rec.Rank)
	}
}

func TestReconstructAblationSmoothersOff(t *testing.T) {
	// Disabling G/H must still produce a finite reconstruction (ablation
	// path used by the benchmark harness).
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(7)))
	opts := DefaultLoLiOptions()
	opts.Beta, opts.Gamma = 0, 0
	rc, err := NewReconstructorWithMask(l, l.Mask(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rc.ReconstructContext(context.Background(), makeUpdateInput(l, truth, vac, pickRefs(l, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.X.IsFinite() {
		t.Fatal("non-finite reconstruction")
	}
}

func TestReconstructSingleReference(t *testing.T) {
	// Degenerate but legal: one reference column.
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(8)))
	rc, _ := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	rec, err := rc.ReconstructContext(context.Background(), makeUpdateInput(l, truth, vac, []int{l.N() / 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.X.IsFinite() {
		t.Fatal("non-finite reconstruction with one reference")
	}
}

func TestReconstructEndToEndWithChannelDrift(t *testing.T) {
	// Integration: reconstruct the drifted matrix from the rf channel and
	// verify the error is far below the stale-fingerprint error.
	grid, err := geom.NewGrid(7.2, 4.8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	p := rf.DefaultParams()
	p.Seed = 99
	ch, err := rf.NewChannel(p, geom.CrossedDeployment(7.2, 4.8, 10), grid)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(ch.Links(), grid, p.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	const days = 45
	truth := ch.TrueFingerprint(days)
	old := ch.TrueFingerprint(0)
	refs, err := SelectReferences(old, DefaultReferenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewReconstructorWithMask(l, l.Mask(), DefaultLoLiOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rc.ReconstructContext(context.Background(), UpdateInput{
		RefIdx:  refs,
		RefCols: truth.SelectCols(refs),
		Vacant:  ch.TrueVacant(days),
	})
	if err != nil {
		t.Fatal(err)
	}
	var recErr, staleErr float64
	var count int
	for i := 0; i < l.M(); i++ {
		for j := 0; j < l.N(); j++ {
			if !l.Distorted(i, j) {
				continue
			}
			recErr += math.Abs(rec.X.At(i, j) - truth.At(i, j))
			staleErr += math.Abs(old.At(i, j) - truth.At(i, j))
			count++
		}
	}
	recErr /= float64(count)
	staleErr /= float64(count)
	if recErr >= staleErr {
		t.Fatalf("reconstruction (%.2f dB) no better than stale fingerprints (%.2f dB)", recErr, staleErr)
	}
	t.Logf("45-day reconstruction error %.2f dB vs stale %.2f dB", recErr, staleErr)
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
