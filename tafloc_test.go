package tafloc_test

import (
	"context"
	"testing"

	"tafloc"
)

// TestQuickstartFlow exercises the documented public-API path end to end:
// deploy, survey, drift, low-cost update, localize.
func TestQuickstartFlow(t *testing.T) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.References()) == 0 {
		t.Fatal("no references selected")
	}

	const days = 45
	refCols, cost := dep.SurveyCells(sys.References(), days)
	if cost.Hours() >= dep.FullSurveyCost().Hours()/3 {
		t.Fatalf("reference survey (%.2f h) is not a low-cost update vs %.2f h",
			cost.Hours(), dep.FullSurveyCost().Hours())
	}
	rec, err := sys.UpdateContext(context.Background(), refCols, dep.VacantCapture(days, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Iterations == 0 {
		t.Fatal("reconstruction did not run")
	}

	p := tafloc.Point{X: 3.3, Y: 2.1}
	y := dep.Channel.MeasureLive(p, days)
	loc, err := sys.Locate(y)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Point.Dist(p) > 3 {
		t.Fatalf("implausible localization error %.2f m", loc.Point.Dist(p))
	}
}

func TestPublicBaselines(t *testing.T) {
	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	im, err := tafloc.NewRTIImager(dep.Channel.Links(), dep.Grid, tafloc.DefaultRTIOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := tafloc.Point{X: 2.1, Y: 2.7}
	vac := dep.Channel.TrueVacant(0)
	live := make([]float64, dep.Channel.M())
	for i := range live {
		live[i] = dep.Channel.TargetRSS(i, p, 0)
	}
	if _, err := im.Locate(vac, live); err != nil {
		t.Fatal(err)
	}
	tr, err := tafloc.NewRASSTracker(dep.Channel.TrueFingerprint(0), vac, dep.Grid, tafloc.DefaultRASSOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Locate(live, vac); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEvalHarness(t *testing.T) {
	cfg := tafloc.DefaultExperimentConfig()
	cfg.TestTargets = 8
	cfg.LiveWindow = 4
	if _, err := tafloc.Fig1(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := tafloc.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := tafloc.CostTable(); err != nil {
		t.Fatal(err)
	}
	s := tafloc.Summarize([]float64{1, 2, 3})
	if s.Mean != 2 {
		t.Fatalf("Summarize mean %g", s.Mean)
	}
	cdf := tafloc.NewCDF([]float64{1, 2, 3, 4})
	if got := cdf.At(2); got != 0.5 {
		t.Fatalf("CDF.At(2) = %g", got)
	}
}

func TestPublicTrackingAndAdaptive(t *testing.T) {
	f, err := tafloc.NewTrackFilter(tafloc.DefaultTrackOptions())
	if err != nil {
		t.Fatal(err)
	}
	var st tafloc.TrackState
	for k := 0; k < 20; k++ {
		var accepted bool
		st, accepted, err = f.Observe(tafloc.Point{X: float64(k) * 0.5, Y: 1}, 1)
		if err != nil || !accepted {
			t.Fatalf("observe %d: %v accepted=%v", k, err, accepted)
		}
	}
	if st.Velocity.X < 0.2 || st.Velocity.X > 0.8 {
		t.Fatalf("velocity estimate %v, want ~0.5 m/s", st.Velocity)
	}

	m, err := tafloc.NewDriftMonitor([]float64{-50, -52}, nil, 0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.Check([]float64{-54, -56}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !est.UpdateRecommended {
		t.Fatalf("4 dB drift not flagged: %+v", est)
	}
}

// TestOpenWithOptions exercises the v2 functional-options builders at
// the public surface: registry selection by name, failure on unknown
// names, and the options form of the service constructor.
func TestOpenWithOptions(t *testing.T) {
	cfg := tafloc.PaperConfig()
	cfg.SamplesPerCell = 5
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher("bayes"))
	if err != nil {
		t.Fatal(err)
	}
	p := tafloc.Point{X: 3.3, Y: 2.1}
	loc, err := sys.Locate(dep.Channel.MeasureLive(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Confidence == 0 {
		t.Error("bayes matcher selected by option should report a confidence")
	}

	if _, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher("no-such")); err == nil {
		t.Error("unknown matcher name accepted by Open")
	}
	if _, err := tafloc.NewMatcherByName("knn"); err != nil {
		t.Errorf("registry re-export: %v", err)
	}
	if len(tafloc.MatcherNames()) < 4 || len(tafloc.DetectorNames()) < 3 {
		t.Errorf("registry names: %v / %v", tafloc.MatcherNames(), tafloc.DetectorNames())
	}

	svc, err := tafloc.NewService(
		tafloc.WithZoneQueue(8),
		tafloc.WithWindow(4),
		tafloc.WithDetector("rms"),
		tafloc.WithDetectThreshold(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	if _, err := tafloc.NewService(tafloc.WithDetector("no-such")); err == nil {
		t.Error("unknown detector name accepted by NewService; want a taflocerr error, not a panic")
	}
	if got := svc.Zones(); len(got) != 1 || got[0] != "z" {
		t.Errorf("zones: %v", got)
	}
}
