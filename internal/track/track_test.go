package track

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tafloc/internal/geom"
)

func TestOptionsValidation(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.ProcessStd = 0 },
		func(o *Options) { o.MeasurementStd = -1 },
		func(o *Options) { o.GateSigma = -1 },
		func(o *Options) { o.MaxCoast = -1 },
		func(o *Options) { o.ProcessStd = math.NaN() },
		func(o *Options) { o.ProcessStd = math.Inf(1) },
		func(o *Options) { o.MeasurementStd = math.NaN() },
		func(o *Options) { o.MeasurementStd = math.Inf(1) },
		func(o *Options) { o.GateSigma = math.NaN() },
		func(o *Options) { o.GateSigma = math.Inf(1) },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
		if _, err := NewFilter(o); err == nil {
			t.Fatalf("case %d: NewFilter accepted invalid options", i)
		}
	}
}

func TestObserveRequiresPositiveDt(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	if _, _, err := f.Observe(geom.Point{}, 0); err == nil {
		t.Fatal("dt=0 accepted")
	}
}

func TestFirstObservationInitializes(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	if f.Initialized() {
		t.Fatal("fresh filter should be uninitialized")
	}
	st, accepted, err := f.Observe(geom.Point{X: 2, Y: 3}, 1)
	if err != nil || !accepted {
		t.Fatalf("first observe: %v accepted=%v", err, accepted)
	}
	if st.Position != (geom.Point{X: 2, Y: 3}) {
		t.Fatalf("initial state %v", st.Position)
	}
	if !f.Initialized() {
		t.Fatal("filter should be initialized")
	}
}

func TestTracksConstantVelocityTarget(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	vx, vy := 0.7, -0.3
	var tailErr, tailRaw float64
	var tailN int
	for k := 0; k < 200; k++ {
		truth := geom.Point{X: 1 + vx*float64(k), Y: 80 + vy*float64(k)}
		fix := geom.Point{
			X: truth.X + 0.8*rng.NormFloat64(),
			Y: truth.Y + 0.8*rng.NormFloat64(),
		}
		st, _, err := f.Observe(fix, 1)
		if err != nil {
			t.Fatal(err)
		}
		if k >= 50 {
			tailErr += st.Position.Dist(truth)
			tailRaw += fix.Dist(truth)
			tailN++
		}
	}
	meanFilt := tailErr / float64(tailN)
	meanRaw := tailRaw / float64(tailN)
	if meanFilt >= meanRaw*0.85 {
		t.Fatalf("tracking does not beat raw fixes: filtered %.2f m vs raw %.2f m", meanFilt, meanRaw)
	}
	// Velocity estimate converged to the true motion.
	st, _, _ := f.Observe(geom.Point{X: 1 + vx*200, Y: 80 + vy*200}, 1)
	if math.Abs(st.Velocity.X-vx) > 0.3 || math.Abs(st.Velocity.Y-vy) > 0.3 {
		t.Fatalf("velocity estimate %v, want ~(%.1f, %.1f)", st.Velocity, vx, vy)
	}
}

func TestFilterSmoothsNoise(t *testing.T) {
	// Against a stationary target, a filter tuned for slow dynamics must
	// cut the error well below the raw fix error. (The default walker
	// tuning is deliberately agile and smooths less.)
	opts := DefaultOptions()
	opts.ProcessStd = 0.15
	f, _ := NewFilter(opts)
	rng := rand.New(rand.NewSource(2))
	truth := geom.Point{X: 5, Y: 5}
	var rawSum, filtSum float64
	n := 100
	for k := 0; k < n; k++ {
		fix := geom.Point{
			X: truth.X + rng.NormFloat64(),
			Y: truth.Y + rng.NormFloat64(),
		}
		st, _, err := f.Observe(fix, 1)
		if err != nil {
			t.Fatal(err)
		}
		if k >= 20 { // after burn-in
			rawSum += fix.Dist(truth)
			filtSum += st.Position.Dist(truth)
		}
	}
	if filtSum >= rawSum*0.6 {
		t.Fatalf("filter does not smooth: filtered %.2f vs raw %.2f", filtSum, rawSum)
	}
}

func TestGateRejectsOutliers(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	for k := 0; k < 10; k++ {
		if _, _, err := f.Observe(geom.Point{X: 1, Y: 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A wild fix far from the track must be gated.
	st, accepted, err := f.Observe(geom.Point{X: 40, Y: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Fatal("outlier fix accepted")
	}
	if st.Position.Dist(geom.Point{X: 1, Y: 1}) > 1 {
		t.Fatalf("coasted state jumped to %v", st.Position)
	}
}

func TestTrackResetsAfterMaxCoast(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxCoast = 2
	f, _ := NewFilter(opts)
	for k := 0; k < 5; k++ {
		f.Observe(geom.Point{X: 1, Y: 1}, 1)
	}
	// Persistent fixes at a new location: after MaxCoast rejections the
	// track re-initializes there (target genuinely moved, e.g. after an
	// occlusion).
	far := geom.Point{X: 30, Y: 30}
	var accepted bool
	for k := 0; k < opts.MaxCoast+1; k++ {
		_, accepted, _ = f.Observe(far, 1)
	}
	if !accepted {
		t.Fatal("track did not re-initialize after MaxCoast rejections")
	}
	st, _, _ := f.Observe(far, 1)
	if st.Position.Dist(far) > 1 {
		t.Fatalf("re-initialized track at %v, want near %v", st.Position, far)
	}
}

func TestPredictCoasts(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	if _, err := f.Predict(1); err == nil {
		t.Fatal("Predict on uninitialized filter accepted")
	}
	// Constant-velocity burn-in, then predict forward.
	for k := 0; k < 30; k++ {
		f.Observe(geom.Point{X: float64(k), Y: 0}, 1)
	}
	st, err := f.Predict(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Position.X-31) > 1.5 {
		t.Fatalf("2-second prediction %v, want x~31", st.Position)
	}
	if _, err := f.Predict(0); err == nil {
		t.Fatal("Predict dt=0 accepted")
	}
}

func TestUncertaintyGrowsWhileCoasting(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	for k := 0; k < 20; k++ {
		f.Observe(geom.Point{X: 1, Y: 1}, 1)
	}
	st0, _ := f.Predict(1)
	st1, _ := f.Predict(1)
	st2, _ := f.Predict(1)
	if !(st2.PosStd > st1.PosStd && st1.PosStd > st0.PosStd) {
		t.Fatalf("uncertainty not growing: %.3f %.3f %.3f", st0.PosStd, st1.PosStd, st2.PosStd)
	}
}

func TestReset(t *testing.T) {
	f, _ := NewFilter(DefaultOptions())
	f.Observe(geom.Point{X: 1, Y: 1}, 1)
	f.Reset()
	if f.Initialized() {
		t.Fatal("Reset did not clear the track")
	}
	st, accepted, err := f.Observe(geom.Point{X: 9, Y: 9}, 1)
	if err != nil || !accepted || st.Position != (geom.Point{X: 9, Y: 9}) {
		t.Fatalf("re-initialization after Reset failed: %v %v %v", st, accepted, err)
	}
}

// TestExportRestoreRoundTrip: a restored filter continues exactly
// where the original would — same state, same outputs for the same
// subsequent fixes.
func TestExportRestoreRoundTrip(t *testing.T) {
	f, err := NewFilter(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fixes := []geom.Point{{X: 1, Y: 1}, {X: 1.4, Y: 1.2}, {X: 1.8, Y: 1.4}}
	for _, p := range fixes {
		if _, _, err := f.Observe(p, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Export()
	g, err := NewFilterFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	next := geom.Point{X: 2.2, Y: 1.6}
	sf, af, err1 := f.Observe(next, 0.5)
	sg, ag, err2 := g.Observe(next, 0.5)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if sf != sg || af != ag {
		t.Errorf("restored filter diverges: %+v vs %+v", sg, sf)
	}

	// Invalid exported state fails restoration closed.
	bad := st
	bad.Opts.ProcessStd = 0
	if _, err := NewFilterFromState(bad); err == nil {
		t.Error("invalid options restored successfully")
	}
	bad = st
	bad.Coasts = -1
	if _, err := NewFilterFromState(bad); err == nil {
		t.Error("negative coast count restored successfully")
	}
	for _, edit := range []func(*FilterState){
		func(s *FilterState) { s.X[0] = math.NaN() },
		func(s *FilterState) { s.Y[1] = math.Inf(-1) },
		func(s *FilterState) { s.PX[0][1] = math.NaN() },
		func(s *FilterState) { s.PY[1][1] = math.Inf(1) },
	} {
		bad = st
		edit(&bad)
		if _, err := NewFilterFromState(bad); err == nil {
			t.Errorf("non-finite state %+v restored successfully", bad)
		}
	}
}

// TestTrackerDtRule pins the wall-clock dt contract: the first fix
// initializes regardless of time, later fixes use at - last, and
// non-advancing timestamps are floored at MinDT instead of erroring.
func TestTrackerDtRule(t *testing.T) {
	tr, err := NewTracker(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(100, 0)
	st, acc := tr.Observe(geom.Point{X: 1, Y: 1}, t0)
	if !acc || st.Position != (geom.Point{X: 1, Y: 1}) {
		t.Fatalf("initializing fix: %+v acc=%v", st, acc)
	}
	// Same timestamp again: must not panic or error — dt is floored.
	tr.Observe(geom.Point{X: 1.01, Y: 1}, t0)
	// The tracker mirrors a hand-driven filter fed the same dt sequence.
	mirror, err := NewFilter(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mirror.Observe(geom.Point{X: 1, Y: 1}, 1)
	mirror.Observe(geom.Point{X: 1.01, Y: 1}, MinDT)
	t1 := time.Unix(101, 500_000_000)
	stT, _ := tr.Observe(geom.Point{X: 1.5, Y: 1.3}, t1)
	stM, _, err := mirror.Observe(geom.Point{X: 1.5, Y: 1.3}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if stT != stM {
		t.Errorf("tracker %+v diverges from hand-driven filter %+v", stT, stM)
	}

	// Tracker state survives export/restore, including the last-fix time.
	ts := tr.Export()
	tr2, err := NewTrackerFromState(ts)
	if err != nil {
		t.Fatal(err)
	}
	t2 := time.Unix(102, 0)
	a, accA := tr.Observe(geom.Point{X: 2, Y: 1.6}, t2)
	b, accB := tr2.Observe(geom.Point{X: 2, Y: 1.6}, t2)
	if a != b || accA != accB {
		t.Errorf("restored tracker diverges: %+v vs %+v", b, a)
	}
}
