package eval

import (
	"context"
	"fmt"
	"math"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/rass"
	"tafloc/internal/rng"
	"tafloc/internal/rti"
	"tafloc/internal/testbed"
)

// ExperimentConfig parameterizes the figure harnesses.
type ExperimentConfig struct {
	// Testbed is the deployment; defaults to the paper deployment.
	Testbed testbed.Config
	// Seed drives test-target placement and any harness-level draws.
	Seed uint64
	// LiveWindow is how many live samples a localization averages.
	LiveWindow int
	// TestTargets is the number of evaluation positions for Fig 5.
	TestTargets int
	// Matcher selects the TafLoc localization matcher by registry name;
	// empty keeps the mask-aware "wknn" default.
	Matcher string
}

// DefaultExperimentConfig returns the configuration used by the
// benchmark harness.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Testbed:     testbed.PaperConfig(),
		Seed:        7,
		LiveWindow:  10,
		TestTargets: 60,
	}
}

// buildSystem surveys the deployment at day 0 and constructs the TafLoc
// system plus its layout, selecting the matcher by registry name.
func buildSystem(dep *testbed.Deployment, matcher string) (*core.System, *core.Layout, error) {
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		return nil, nil, err
	}
	survey, _ := dep.Survey(0)
	vacant := dep.VacantCapture(0, 100)
	opts := core.DefaultSystemOptions()
	opts.MatcherName = matcher
	sys, err := core.NewSystem(layout, survey, vacant, opts)
	if err != nil {
		return nil, nil, err
	}
	return sys, layout, nil
}

// reconstructionErrors runs a TafLoc update at the given age and returns
// the absolute reconstruction errors (dB) over the largely-distorted
// entries — the set Fig 3's CDF is computed over (the undistorted
// entries are measured, not reconstructed).
func reconstructionErrors(dep *testbed.Deployment, sys *core.System, layout *core.Layout, days float64) ([]float64, error) {
	refs := sys.References()
	refCols, _ := dep.SurveyCells(refs, days)
	vacant := dep.VacantCapture(days, 100)
	rec, err := sys.UpdateContext(context.Background(), refCols, vacant)
	if err != nil {
		return nil, err
	}
	truth := dep.Channel.TrueFingerprint(days)
	isRef := make(map[int]bool, len(refs))
	for _, j := range refs {
		isRef[j] = true
	}
	mask := sys.Mask()
	var errs []float64
	for i := 0; i < layout.M(); i++ {
		for j := 0; j < layout.N(); j++ {
			if mask.At(i, j) == 1 || isRef[j] {
				continue // measured, not reconstructed
			}
			errs = append(errs, math.Abs(rec.X.At(i, j)-truth.At(i, j)))
		}
	}
	return errs, nil
}

// Fig3 reproduces "Fingerprint reconstruction errors after different
// time periods": CDFs of the reconstruction error at 3 d, 15 d, 45 d and
// 3 months. The paper reports mean errors of 2.7, 3.3, 3.6 and 4.1 dBm.
func Fig3(cfg ExperimentConfig) (*Figure, error) {
	dep, err := testbed.New(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	sys, layout, err := buildSystem(dep, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	epochs := []struct {
		name string
		days float64
	}{
		{"3 days", 3}, {"15 days", 15}, {"45 days", 45}, {"3 months", 90},
	}
	xs := Linspace(0, 15, 61)
	fig := &Figure{
		Title:  "Fig 3: Fingerprint reconstruction error CDF",
		XLabel: "err_dBm",
		YLabel: "CDF",
	}
	for _, e := range epochs {
		errs, err := reconstructionErrors(dep, sys, layout, e.days)
		if err != nil {
			return nil, fmt.Errorf("eval: fig3 epoch %s: %w", e.name, err)
		}
		cdf := NewCDF(errs)
		fig.Series = append(fig.Series, Series{Name: e.name, X: xs, Y: cdf.SampleAt(xs)})
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: mean %.2f dBm (paper: %s)", e.name, Summarize(errs).Mean, paperFig3Mean(e.days)))
	}
	return fig, nil
}

func paperFig3Mean(days float64) string {
	switch days {
	case 3:
		return "2.7 dBm"
	case 15:
		return "3.3 dBm"
	case 45:
		return "3.6 dBm"
	case 90:
		return "4.1 dBm"
	}
	return "n/a"
}

// Fig4 reproduces "Fingerprint update time costs with different sizes of
// area": full-survey hours vs TafLoc reference-survey hours for square
// areas with edges 6..36 m. The paper reports 2.78 h vs 0.28 h at 6 m and
// ~100 h vs ~1.6 h at 36 m.
func Fig4() (*Figure, error) {
	edges := []float64{6, 12, 18, 24, 30, 36}
	fig := &Figure{
		Title:  "Fig 4: Fingerprint update time cost vs area size",
		XLabel: "edge_m",
		YLabel: "hours",
	}
	var full, taf []float64
	for _, edge := range edges {
		cfg := testbed.SquareConfig(edge)
		dep, err := testbed.New(cfg)
		if err != nil {
			return nil, err
		}
		layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, cfg.RF.MaskExcessM())
		if err != nil {
			return nil, err
		}
		nRef := core.ReferenceCountForLayout(layout, 10)
		full = append(full, dep.FullSurveyCost().Hours())
		taf = append(taf, dep.ReferenceSurveyCost(nRef).Hours())
	}
	fig.Series = append(fig.Series,
		Series{Name: "TafLoc", X: edges, Y: taf},
		Series{Name: "Existing systems", X: edges, Y: full},
	)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("6 m: existing %.2f h vs TafLoc %.2f h (paper: 2.78 vs 0.28)", full[0], taf[0]),
		fmt.Sprintf("36 m: existing %.1f h vs TafLoc %.2f h (paper: ~100 vs ~1.6)", full[len(full)-1], taf[len(taf)-1]),
	)
	return fig, nil
}

// Fig5Systems names the four systems compared in Fig 5.
var Fig5Systems = []string{"TafLoc", "RTI", "RASS w/ rec.", "RASS w/o rec."}

// Fig5 reproduces "Localization performance comparing with
// state-of-the-art systems at 3 months later": error CDFs for TafLoc,
// RTI, RASS with the reconstruction scheme, and RASS without it.
func Fig5(cfg ExperimentConfig) (*Figure, error) {
	const days = 90
	dep, err := testbed.New(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	sys, layout, err := buildSystem(dep, cfg.Matcher)
	if err != nil {
		return nil, err
	}
	day0X := sys.Fingerprints()
	day0Vac := sys.Vacant()

	// TafLoc update at 3 months.
	refs := sys.References()
	refCols, _ := dep.SurveyCells(refs, days)
	vacant := dep.VacantCapture(days, 100)
	rec, err := sys.UpdateContext(context.Background(), refCols, vacant)
	if err != nil {
		return nil, err
	}

	// RTI needs only geometry and a fresh vacant capture.
	imager, err := rti.NewImager(dep.Channel.Links(), dep.Grid, rti.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// RASS without reconstruction: stale day-0 database.
	rassStale, err := rass.NewTracker(day0X, day0Vac, dep.Grid, rass.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// RASS with reconstruction: database refreshed by LoLi-IR.
	rassFresh, err := rass.NewTracker(rec.X, vacant, dep.Grid, rass.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// Evaluation targets: uniform random positions inside the grid,
	// shared across systems so the comparison is paired.
	r := rng.New(cfg.Seed)
	n := cfg.TestTargets
	if n <= 0 {
		n = 60
	}
	win := cfg.LiveWindow
	if win <= 0 {
		win = 10
	}
	errTaf := make([]float64, 0, n)
	errRTI := make([]float64, 0, n)
	errRassW := make([]float64, 0, n)
	errRassWo := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		p := geom.Point{
			X: r.Uniform(0.3, dep.Grid.Width-0.3),
			Y: r.Uniform(0.3, dep.Grid.Height-0.3),
		}
		y := averagedLive(dep, p, days, win)

		loc, err := sys.Locate(y)
		if err != nil {
			return nil, err
		}
		errTaf = append(errTaf, p.Dist(loc.Point))

		pt, err := imager.Locate(vacant, y)
		if err != nil {
			return nil, err
		}
		errRTI = append(errRTI, p.Dist(pt))

		pt, err = rassFresh.Locate(y, vacant)
		if err != nil {
			return nil, err
		}
		errRassW = append(errRassW, p.Dist(pt))

		pt, err = rassStale.Locate(y, day0Vac)
		if err != nil {
			return nil, err
		}
		errRassWo = append(errRassWo, p.Dist(pt))
	}

	xs := Linspace(0, 6, 61)
	fig := &Figure{
		Title:  "Fig 5: Localization error CDF at 3 months",
		XLabel: "err_m",
		YLabel: "CDF",
	}
	for _, s := range []struct {
		name string
		errs []float64
	}{
		{"TafLoc", errTaf},
		{"RTI", errRTI},
		{"RASS w/ rec.", errRassW},
		{"RASS w/o rec.", errRassWo},
	} {
		cdf := NewCDF(s.errs)
		fig.Series = append(fig.Series, Series{Name: s.name, X: xs, Y: cdf.SampleAt(xs)})
		sum := Summarize(s.errs)
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: median %.2f m, mean %.2f m, p90 %.2f m", s.name, sum.Median, sum.Mean, sum.P90))
	}
	_ = layout
	return fig, nil
}

// averagedLive averages win live samples at point p.
func averagedLive(dep *testbed.Deployment, p geom.Point, days float64, win int) []float64 {
	y := make([]float64, dep.Channel.M())
	for s := 0; s < win; s++ {
		one := dep.Channel.MeasureLive(p, days)
		for i := range y {
			y[i] += one[i]
		}
	}
	for i := range y {
		y[i] /= float64(win)
	}
	return y
}

// DriftTable reproduces the in-text measurement "the RSS values change
// 2.5 dBm and 6 dBm respectively after 5 and 45 days": mean absolute
// vacant-RSS drift of the simulated channel across many seeds.
func DriftTable(cfg ExperimentConfig) (*Table, error) {
	tbl := &Table{
		Title:   "In-text: RSS drift over time",
		Columns: []string{"days", "mean |drift| dBm", "paper"},
	}
	days := []float64{3, 5, 15, 45, 90}
	paper := map[float64]string{5: "2.5", 45: "6.0"}
	for _, d := range days {
		var sum float64
		var count int
		for seed := uint64(0); seed < 40; seed++ {
			c := cfg.Testbed
			c.RF.Seed = seed
			dep, err := testbed.New(c)
			if err != nil {
				return nil, err
			}
			v0 := dep.Channel.TrueVacant(0)
			vt := dep.Channel.TrueVacant(d)
			for i := range v0 {
				sum += math.Abs(vt[i] - v0[i])
				count++
			}
		}
		ref := paper[d]
		if ref == "" {
			ref = "-"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", d),
			fmt.Sprintf("%.2f", sum/float64(count)),
			ref,
		})
	}
	return tbl, nil
}

// CostTable reproduces the in-text 6 m x 6 m cost arithmetic: 2.78 h for
// a full survey vs 0.28 h for TafLoc's 10 reference locations.
func CostTable() (*Table, error) {
	cfg := testbed.SquareConfig(6)
	dep, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	full := dep.FullSurveyCost()
	ref := dep.ReferenceSurveyCost(10)
	return &Table{
		Title:   "In-text: update cost at 6 m x 6 m",
		Columns: []string{"system", "cells", "hours", "paper"},
		Rows: [][]string{
			{"existing (full survey)", fmt.Sprint(full.CellsVisited), fmt.Sprintf("%.2f", full.Hours()), "2.78"},
			{"TafLoc (10 references)", fmt.Sprint(ref.CellsVisited), fmt.Sprintf("%.2f", ref.Hours()), "0.28"},
		},
	}, nil
}

// Fig1 characterizes the fingerprint matrix of Fig 1: singular-value
// spectrum (approximate low rank) and the distorted/undistorted split.
func Fig1(cfg ExperimentConfig) (*Figure, error) {
	dep, err := testbed.New(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, cfg.Testbed.RF.MaskExcessM())
	if err != nil {
		return nil, err
	}
	truth := dep.Channel.TrueFingerprint(0)
	// Spectrum of the attenuation structure (baseline removed, as the
	// reconstruction operates).
	vac := dep.Channel.TrueVacant(0)
	atten := mat.New(layout.M(), layout.N())
	for i := 0; i < layout.M(); i++ {
		for j := 0; j < layout.N(); j++ {
			atten.Set(i, j, vac[i]-truth.At(i, j))
		}
	}
	svd := mat.SVDecompose(atten)
	idx := make([]float64, len(svd.S))
	for i := range idx {
		idx[i] = float64(i + 1)
	}
	fig := &Figure{
		Title:  "Fig 1: fingerprint matrix structure",
		XLabel: "sv_index",
		YLabel: "sigma",
		Series: []Series{{Name: "singular values", X: idx, Y: svd.S}},
	}
	total := layout.M() * layout.N()
	distorted := layout.DistortedCount()
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("matrix %dx%d, %d distorted entries (%.1f%%), energy rank(0.995)=%d",
			layout.M(), layout.N(), distorted,
			100*float64(distorted)/float64(total), svd.EnergyRank(0.995)),
	)
	return fig, nil
}

// AblationResult is one row of the design-choice ablation.
type AblationResult struct {
	Name    string
	MeanErr float64
}

// Ablation measures the 45-day reconstruction error with individual
// LoLi-IR terms disabled and with swept reference counts, quantifying the
// design choices DESIGN.md calls out.
func Ablation(cfg ExperimentConfig) (*Table, error) {
	const days = 45
	dep, err := testbed.New(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, cfg.Testbed.RF.MaskExcessM())
	if err != nil {
		return nil, err
	}
	survey, _ := dep.Survey(0)
	vacant0 := dep.VacantCapture(0, 100)
	mask, err := core.MaskFromSurvey(survey, vacant0, 1.5)
	if err != nil {
		return nil, err
	}

	run := func(opts core.LoLiOptions, refOpts core.ReferenceOptions) (float64, error) {
		refs, err := core.SelectReferences(survey, refOpts)
		if err != nil {
			return 0, err
		}
		rc, err := core.NewReconstructorWithMask(layout, mask, opts)
		if err != nil {
			return 0, err
		}
		refCols, _ := dep.SurveyCells(refs, days)
		rec, err := rc.ReconstructContext(context.Background(), core.UpdateInput{
			RefIdx:  refs,
			RefCols: refCols,
			Vacant:  dep.VacantCapture(days, 100),
		})
		if err != nil {
			return 0, err
		}
		truth := dep.Channel.TrueFingerprint(days)
		isRef := make(map[int]bool)
		for _, j := range refs {
			isRef[j] = true
		}
		var sum float64
		var count int
		for i := 0; i < layout.M(); i++ {
			for j := 0; j < layout.N(); j++ {
				if mask.At(i, j) == 0 && !isRef[j] {
					sum += math.Abs(rec.X.At(i, j) - truth.At(i, j))
					count++
				}
			}
		}
		return sum / float64(count), nil
	}

	tbl := &Table{
		Title:   "Ablation: 45-day reconstruction error by design choice",
		Columns: []string{"variant", "mean err dBm"},
	}
	add := func(name string, opts core.LoLiOptions, refOpts core.ReferenceOptions) error {
		v, err := run(opts, refOpts)
		if err != nil {
			return fmt.Errorf("eval: ablation %s: %w", name, err)
		}
		tbl.Rows = append(tbl.Rows, []string{name, fmt.Sprintf("%.2f", v)})
		return nil
	}
	defRef := core.DefaultReferenceOptions()
	full := core.DefaultLoLiOptions()
	if err := add("full LoLi-IR", full, defRef); err != nil {
		return nil, err
	}
	noZ := full
	noZ.Alpha = 0
	if err := add("no linear-representation term (alpha=0)", noZ, defRef); err != nil {
		return nil, err
	}
	noG := full
	noG.Beta = 0
	if err := add("no continuity term (beta=0)", noG, defRef); err != nil {
		return nil, err
	}
	noH := full
	noH.Gamma = 0
	if err := add("no similarity term (gamma=0)", noH, defRef); err != nil {
		return nil, err
	}
	noSmooth := full
	noSmooth.Beta, noSmooth.Gamma = 0, 0
	if err := add("no smoothness terms", noSmooth, defRef); err != nil {
		return nil, err
	}
	for _, n := range []int{4, 8, 16, 24} {
		if err := add(fmt.Sprintf("references n=%d", n), full, core.ReferenceOptions{Count: n}); err != nil {
			return nil, err
		}
	}
	for _, r := range []int{2, 4, 8} {
		opts := full
		opts.Rank = r
		if err := add(fmt.Sprintf("rank r=%d", r), opts, defRef); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
