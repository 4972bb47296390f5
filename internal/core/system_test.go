package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/rf"
	"tafloc/internal/testbed"
	"tafloc/taflocerr"
)

// systemFixture wires a full deployment and a day-0 System.
type systemFixture struct {
	dep *testbed.Deployment
	l   *Layout
	sys *System
}

func newSystemFixture(t *testing.T, seed uint64) *systemFixture {
	t.Helper()
	cfg := testbed.PaperConfig()
	cfg.RF.Seed = seed
	dep, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(dep.Channel.Links(), dep.Grid, cfg.RF.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	survey, _ := dep.Survey(0)
	vac := dep.VacantCapture(0, 100)
	sys, err := NewSystem(l, survey, vac, DefaultSystemOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &systemFixture{dep: dep, l: l, sys: sys}
}

func TestNewSystemValidation(t *testing.T) {
	f := newSystemFixture(t, 1)
	survey := f.sys.Fingerprints()
	vac := f.sys.Vacant()
	if _, err := NewSystem(nil, survey, vac, DefaultSystemOptions()); err == nil {
		t.Fatal("nil layout accepted")
	}
	if _, err := NewSystem(f.l, mat.New(2, 2), vac, DefaultSystemOptions()); err == nil {
		t.Fatal("wrong survey shape accepted")
	}
	if _, err := NewSystem(f.l, survey, vac[:1], DefaultSystemOptions()); err == nil {
		t.Fatal("wrong vacant length accepted")
	}
	// The reconstructor is built on the first Update, but its options are
	// checked here, for the learned mask and the geometric one alike.
	bad := DefaultSystemOptions()
	bad.LoLi.Lambda, bad.LoLi.Alpha = 0, 0
	for _, thr := range []float64{0, -1} {
		bad.MaskThresholdDB = thr
		if _, err := NewSystem(f.l, survey, vac, bad); err == nil {
			t.Fatalf("invalid LoLi options accepted (MaskThresholdDB %v)", thr)
		}
	}
}

// TestSystemRejectsOutOfRangeRSS pins the range rule at the two
// calibration doors: NewSystem (survey and vacant) and UpdateContext
// (reference columns and vacant) reject NaN, ±Inf and values outside
// [MinRSS, MaxRSS] with CodeBadRequest, as RestoreSystem would reject
// the System's own export otherwise; a rejected update leaves the
// previous Model published.
func TestSystemRejectsOutOfRangeRSS(t *testing.T) {
	f := newSystemFixture(t, 10)
	survey := f.sys.Fingerprints()
	vac := f.sys.Vacant()
	refCols, _ := f.dep.SurveyCells(f.sys.References(), 30)
	vac30 := f.dep.VacantCapture(30, 50)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
		badSurvey := survey.Clone()
		badSurvey.Set(1, 2, v)
		badVac := append([]float64(nil), vac...)
		badVac[1] = v
		badRefs := refCols.Clone()
		badRefs.Set(1, 0, v)
		badVac30 := append([]float64(nil), vac30...)
		badVac30[1] = v
		before := f.sys.Model()
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"NewSystem survey", func() error {
				_, err := NewSystem(f.l, badSurvey, vac, DefaultSystemOptions())
				return err
			}},
			{"NewSystem vacant", func() error {
				_, err := NewSystem(f.l, survey, badVac, DefaultSystemOptions())
				return err
			}},
			{"UpdateContext refCols", func() error {
				_, err := f.sys.UpdateContext(context.Background(), badRefs, vac30)
				return err
			}},
			{"UpdateContext vacant", func() error {
				_, err := f.sys.UpdateContext(context.Background(), refCols, badVac30)
				return err
			}},
		} {
			if err := tc.call(); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
				t.Errorf("%s with an entry of %v: err %v, want %s", tc.name, v, err, taflocerr.CodeBadRequest)
			}
		}
		if f.sys.Model() != before {
			t.Errorf("a rejected update with an entry of %v replaced the published Model", v)
		}
	}
}

func TestSystemReferencesSelected(t *testing.T) {
	f := newSystemFixture(t, 2)
	refs := f.sys.References()
	if len(refs) < 10 {
		t.Fatalf("only %d references", len(refs))
	}
	if len(refs) > f.l.N()/2 {
		t.Fatalf("%d references defeats the low-cost premise", len(refs))
	}
	// Returned slice must be a copy.
	refs[0] = -99
	if f.sys.References()[0] == -99 {
		t.Fatal("References leaked internal state")
	}
}

func TestSystemLocateDay0(t *testing.T) {
	f := newSystemFixture(t, 3)
	// Average several live samples like a real tracker does.
	p := geom.Point{X: 3.3, Y: 2.1}
	y := averagedLive(f.dep.Channel, p, 0, 10)
	loc, err := f.sys.Locate(y)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dist(loc.Point); d > 1.5 {
		t.Fatalf("day-0 localization error %.2f m", d)
	}
}

func TestSystemUpdateRestoresAccuracy(t *testing.T) {
	f := newSystemFixture(t, 4)
	const days = 90
	// After three months without update, localization degrades; after a
	// TafLoc update it must improve on average over a spread of targets.
	var testPoints []geom.Point
	for _, x := range []float64{0.9, 2.1, 3.3, 4.5, 5.7, 6.6} {
		for _, y := range []float64{0.9, 2.4, 3.9} {
			testPoints = append(testPoints, geom.Point{X: x, Y: y})
		}
	}
	evalErr := func() float64 {
		var sum float64
		for _, p := range testPoints {
			y := averagedLive(f.dep.Channel, p, days, 10)
			loc, err := f.sys.Locate(y)
			if err != nil {
				t.Fatal(err)
			}
			sum += p.Dist(loc.Point)
		}
		return sum / float64(len(testPoints))
	}
	staleErr := evalErr()

	refs := f.sys.References()
	refCols, _ := f.dep.SurveyCells(refs, days)
	vac := f.dep.VacantCapture(days, 100)
	rec, err := f.sys.UpdateContext(context.Background(), refCols, vac)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iterations == 0 || !rec.X.IsFinite() {
		t.Fatalf("degenerate reconstruction: %+v", rec)
	}
	freshErr := evalErr()
	if freshErr >= staleErr {
		t.Fatalf("update did not help: stale %.2f m, fresh %.2f m", staleErr, freshErr)
	}
	t.Logf("90-day localization: stale %.2f m -> updated %.2f m", staleErr, freshErr)
}

func TestSystemUpdateInstallsAtomically(t *testing.T) {
	f := newSystemFixture(t, 5)
	refs := f.sys.References()
	refCols, _ := f.dep.SurveyCells(refs, 30)
	vac := f.dep.VacantCapture(30, 100)

	// Concurrent Locate calls while Update runs must never observe a
	// torn database (run with -race).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := geom.Point{X: 2, Y: 2}
		for {
			select {
			case <-stop:
				return
			default:
			}
			y := averagedLive(f.dep.Channel, p, 30, 2)
			if _, err := f.sys.Locate(y); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := f.sys.UpdateContext(context.Background(), refCols, vac); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

func TestSystemUpdateRejectsBadInput(t *testing.T) {
	f := newSystemFixture(t, 6)
	if _, err := f.sys.UpdateContext(context.Background(), mat.New(1, 1), f.sys.Vacant()); err == nil {
		t.Fatal("bad refCols accepted")
	}
	refs := f.sys.References()
	refCols, _ := f.dep.SurveyCells(refs, 10)
	if _, err := f.sys.UpdateContext(context.Background(), refCols, nil); err == nil {
		t.Fatal("nil vacant accepted")
	}
}

func TestSystemReselect(t *testing.T) {
	f := newSystemFixture(t, 7)
	refs, err := f.sys.Reselect()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("empty reselection")
	}
	got := f.sys.References()
	if len(got) != len(refs) {
		t.Fatal("Reselect did not install the new set")
	}
}

func TestSystemDetect(t *testing.T) {
	f := newSystemFixture(t, 8)
	vacRead := averagedVacant(f.dep.Channel, 0, 10)
	if present, dev := f.sys.Detect(vacRead, 1.2); present {
		t.Fatalf("vacant room flagged (dev %.2f)", dev)
	}
	// The sensitive band is displaced per link, so probe each link's
	// midpoint and require detection at the strongest response.
	var best float64
	var bestP = f.l.Links[0].Midpoint()
	for i := range f.l.Links {
		p := f.l.Links[i].Midpoint()
		y := averagedLive(f.dep.Channel, p, 0, 10)
		if _, dev := f.sys.Detect(y, 0); dev > best {
			best, bestP = dev, p
		}
	}
	y := averagedLive(f.dep.Channel, bestP, 0, 10)
	if present, dev := f.sys.Detect(y, 0); !present {
		t.Fatalf("target missed at strongest point (dev %.2f)", dev)
	}
}

func TestSystemFingerprintsCopy(t *testing.T) {
	f := newSystemFixture(t, 9)
	x := f.sys.Fingerprints()
	x.Set(0, 0, 12345)
	if f.sys.Fingerprints().At(0, 0) == 12345 {
		t.Fatal("Fingerprints leaked internal state")
	}
	v := f.sys.Vacant()
	v[0] = 12345
	if f.sys.Vacant()[0] == 12345 {
		t.Fatal("Vacant leaked internal state")
	}
}

// averagedLive averages k noisy live measurement vectors.
func averagedLive(ch *rf.Channel, p geom.Point, days float64, k int) []float64 {
	out := make([]float64, ch.M())
	for s := 0; s < k; s++ {
		y := ch.MeasureLive(p, days)
		for i := range out {
			out[i] += y[i]
		}
	}
	for i := range out {
		out[i] /= float64(k)
	}
	return out
}

func averagedVacant(ch *rf.Channel, days float64, k int) []float64 {
	return ch.MeasureVacant(days, k)
}
