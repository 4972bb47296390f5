package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/taflocerr"
)

// matchFixture builds a layout, synthetic truth, and a helper producing
// live measurement vectors for arbitrary points.
type matchFixture struct {
	l     *Layout
	truth *mat.Matrix
	vac   []float64
	m     *Model
}

// mustModel wraps a bare database and layout as an immutable Model, the
// unit every matcher now operates on.
func mustModel(t testing.TB, l *Layout, x *mat.Matrix) *Model {
	t.Helper()
	m, err := NewModel(l, x, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newMatchFixture(t *testing.T, seed int64) *matchFixture {
	t.Helper()
	l := testLayout(t)
	truth, vac := syntheticTruth(l, rand.New(rand.NewSource(seed)))
	return &matchFixture{l: l, truth: truth, vac: vac, m: mustModel(t, l, truth)}
}

// liveAt synthesizes the noise-free measurement vector for a target at p
// using the same forward model as syntheticTruth.
func (f *matchFixture) liveAt(p geom.Point) []float64 {
	y := make([]float64, f.l.M())
	for i := range y {
		seg := f.l.Links[i]
		excess := seg.ExcessPathLength(p)
		atten := 0.0
		if excess <= f.l.EllipseExcess {
			atten = 8 * math.Exp(-excess/0.25)
		}
		y[i] = f.vac[i] - atten
	}
	return y
}

func TestNNMatcherExactColumns(t *testing.T) {
	f := newMatchFixture(t, 1)
	// A measurement equal to a fingerprint column must match that cell.
	for _, j := range []int{0, 17, f.l.N() / 2, f.l.N() - 1} {
		loc, err := NNMatcher{}.Match(f.m, f.truth.Col(j), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if loc.Distance > 1e-9 {
			t.Fatalf("distance %g for exact column", loc.Distance)
		}
		// Ambiguity caveat: cells with identical fingerprints (no link
		// coverage) can alias; accept any zero-distance match.
		got := f.truth.Col(loc.Cell)
		want := f.truth.Col(j)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cell %d matched column differs from cell %d", loc.Cell, j)
			}
		}
	}
}

func TestNNMatcherNoisyMeasurement(t *testing.T) {
	f := newMatchFixture(t, 2)
	rng := rand.New(rand.NewSource(3))
	var totalErr float64
	trials := 40
	for k := 0; k < trials; k++ {
		j := rng.Intn(f.l.N())
		y := f.truth.Col(j)
		for i := range y {
			y[i] += 0.4 * rng.NormFloat64()
		}
		loc, err := NNMatcher{}.Match(f.m, y, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		totalErr += f.l.Grid.Center(j).Dist(loc.Point)
	}
	if mean := totalErr / float64(trials); mean > 1.5 {
		t.Fatalf("mean NN localization error %.2f m too large", mean)
	}
}

func TestKNNMatcherSubCellRefinement(t *testing.T) {
	f := newMatchFixture(t, 4)
	// Target off cell centres: KNN should produce a point estimate whose
	// error is no worse than a cell diagonal.
	p := geom.Point{X: 2.05, Y: 2.35}
	loc, err := KNNMatcher{K: 3}.Match(f.m, f.liveAt(p), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dist(loc.Point); d > 0.85 {
		t.Fatalf("KNN error %.2f m exceeds cell diagonal", d)
	}
}

func TestKNNMatcherDefaultsAndClamps(t *testing.T) {
	f := newMatchFixture(t, 5)
	y := f.truth.Col(10)
	if _, err := (KNNMatcher{}).Match(f.m, y, NewScratch()); err != nil {
		t.Fatalf("zero K: %v", err)
	}
	if _, err := (KNNMatcher{K: 10000}).Match(f.m, y, NewScratch()); err != nil {
		t.Fatalf("huge K: %v", err)
	}
}

func TestBayesMatcherConfidence(t *testing.T) {
	f := newMatchFixture(t, 6)
	j := 30
	loc, err := BayesMatcher{SigmaDB: 1}.Match(f.m, f.truth.Col(j), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if loc.Confidence <= 0 || loc.Confidence > 1 {
		t.Fatalf("confidence %g out of (0,1]", loc.Confidence)
	}
	// Exact column: the winning cell's fingerprint must equal column j's.
	got := f.truth.Col(loc.Cell)
	want := f.truth.Col(j)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("Bayes matched wrong fingerprint")
		}
	}
}

func TestBayesMatcherPosteriorCentroidInsideArea(t *testing.T) {
	f := newMatchFixture(t, 7)
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 20; k++ {
		y := f.truth.Col(rng.Intn(f.l.N()))
		for i := range y {
			y[i] += rng.NormFloat64()
		}
		loc, err := BayesMatcher{}.Match(f.m, y, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if loc.Point.X < 0 || loc.Point.X > f.l.Grid.Width ||
			loc.Point.Y < 0 || loc.Point.Y > f.l.Grid.Height {
			t.Fatalf("posterior centroid %v outside area", loc.Point)
		}
	}
}

func TestMatchersValidateInput(t *testing.T) {
	f := newMatchFixture(t, 9)
	short := make([]float64, 3)
	for _, m := range []Matcher{NNMatcher{}, KNNMatcher{}, BayesMatcher{}, WeightedKNNMatcher{}} {
		if _, err := m.Match(f.m, short, NewScratch()); err == nil {
			t.Fatalf("%T accepted short measurement", m)
		}
		if _, err := m.Match(nil, f.vac, NewScratch()); err == nil {
			t.Fatalf("%T accepted nil model", m)
		}
	}
}

// TestMatchersRejectOutOfRangeMeasurement: one NaN, ±Inf or huge entry
// in the live vector has no meaningful estimate. Every built-in matcher
// must reject it with CodeBadRequest, on the matcher and through
// System.Locate, instead of answering a NaN point (knn, wknn, bayes) or
// indexing cell -1 (nn).
func TestMatchersRejectOutOfRangeMeasurement(t *testing.T) {
	f := newMatchFixture(t, 10)
	for _, tc := range []struct {
		name string
		m    Matcher
	}{
		{MatcherNN, NNMatcher{}},
		{MatcherKNN, KNNMatcher{}},
		{MatcherBayes, BayesMatcher{}},
		{MatcherWKNN, WeightedKNNMatcher{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultSystemOptions()
			opts.MatcherName = tc.name
			sys, err := NewSystem(f.l, f.truth, f.vac, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200, MaxRSS + 1} {
				y := f.truth.Col(5)
				y[0] = v
				if loc, err := tc.m.Match(f.m, y, NewScratch()); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
					t.Errorf("Match with y[0] = %v: (%+v, %v), want a %s error", v, loc, err, taflocerr.CodeBadRequest)
				}
				if loc, err := sys.Locate(y); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
					t.Errorf("System.Locate with y[0] = %v: (%+v, %v), want a %s error", v, loc, err, taflocerr.CodeBadRequest)
				}
			}
		})
	}
}

// TestNNMatcherNoFiniteDistance: a database entry of 1e200 in every
// column makes every distance +Inf even for an in-range live vector.
// NewModel does not apply the range rule, so nn must still say that no
// cell is nearest instead of indexing cell -1.
func TestNNMatcherNoFiniteDistance(t *testing.T) {
	f := newMatchFixture(t, 10)
	x := f.truth.Clone()
	for j := 0; j < x.Cols(); j++ {
		x.Set(0, j, 1e200)
	}
	if _, err := (NNMatcher{}).Match(mustModel(t, f.l, x), f.truth.Col(5), NewScratch()); !errors.Is(err, errNoFiniteDistance) {
		t.Errorf("NNMatcher over a database of 1e200: %v, want errNoFiniteDistance", err)
	}
}

func TestNewModelValidation(t *testing.T) {
	f := newMatchFixture(t, 12)
	if _, err := NewModel(nil, f.truth, nil, nil, nil, nil); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := NewModel(f.l, mat.New(2, 2), nil, nil, nil, nil); err == nil {
		t.Error("wrong database shape accepted")
	}
	if _, err := NewModel(f.l, f.truth, mat.New(2, 2), nil, nil, nil); err == nil {
		t.Error("wrong observed shape accepted")
	}
	if _, err := NewModel(f.l, f.truth, nil, f.vac[:2], nil, nil); err == nil {
		t.Error("wrong vacant length accepted")
	}
	if _, err := NewModel(f.l, f.truth, nil, nil, []int{-1}, nil); err == nil {
		t.Error("out-of-range reference accepted")
	}
	m, err := NewModel(f.l, f.truth, nil, f.vac, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Matcher().(WeightedKNNMatcher); !ok {
		t.Errorf("nil matcher resolved to %T, want WeightedKNNMatcher", m.Matcher())
	}
	refs := m.References()
	refs[0] = -99
	if m.References()[0] == -99 {
		t.Error("References leaked internal state")
	}
}

func TestDetector(t *testing.T) {
	f := newMatchFixture(t, 10)
	d := Detector{Vacant: f.vac, ThresholdDB: 1}
	// Vacant reading: no target.
	if present, dev := d.Present(f.vac); present || dev != 0 {
		t.Fatalf("vacant flagged present (dev %.2f)", dev)
	}
	// Target on a link midpoint: present.
	p := f.l.Links[0].Midpoint()
	if present, dev := d.Present(f.liveAt(p)); !present {
		t.Fatalf("target not detected (dev %.2f)", dev)
	}
	// Length mismatch: not present, no panic.
	if present, _ := d.Present(f.vac[:2]); present {
		t.Fatal("mismatched length reported present")
	}
}

func TestDetectorDefaultThreshold(t *testing.T) {
	f := newMatchFixture(t, 11)
	d := Detector{Vacant: f.vac}
	p := f.l.Links[2].Midpoint()
	if present, _ := d.Present(f.liveAt(p)); !present {
		t.Fatal("default threshold missed an on-LoS target")
	}
}

// TestNearestCandsMatchesSortPrefix pins the one-pass k-nearest
// selection to the full sort it replaces: for every k from 1 to n, the
// selected (index, distance bits) pairs must equal the first k of
// sortCands over the same slice — across exact ties inside the top k
// and at its boundary, NaNs, and infinities, where the selection has
// to fall back to that sort to keep its tie order.
func TestNearestCandsMatchesSortPrefix(t *testing.T) {
	sc := NewScratch()
	check := func(name string, dists []float64) {
		t.Helper()
		want := make([]cand, len(dists))
		for j, d := range dists {
			want[j] = cand{j, d}
		}
		sortCands(want)
		for k := 1; k <= len(dists); k++ {
			got := nearestCands(sc, dists, k)
			if len(got) != k {
				t.Fatalf("%s k=%d: %d candidates", name, k, len(got))
			}
			for i, c := range got {
				if c.j != want[i].j || math.Float64bits(c.d) != math.Float64bits(want[i].d) {
					t.Fatalf("%s k=%d: slot %d is (%d, %v), sortCands has (%d, %v)\ndists %v",
						name, k, i, c.j, c.d, want[i].j, want[i].d, dists)
				}
			}
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	check("distinct", []float64{5, 3, 9, 1, 7, 2})
	check("tie inside top k", []float64{6, 1, 4, 1, 9, 8})
	check("tie at boundary", []float64{2, 5, 1, 9, 5, 7})
	check("tie after boundary", []float64{2, 1, 3, 9, 9, 4})
	check("all equal", []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	check("nan first", []float64{nan, 4, 2, 8})
	check("nan last", []float64{4, 2, 8, nan})
	check("infinities", []float64{inf, 2, inf, 1, inf})

	// Random slices long enough for the sort's unstable partitioning
	// (it insertion-sorts only up to 12 elements), from a small value set
	// so exact ties are common, plus injected duplicates and NaNs.
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		dists := make([]float64, n)
		for j := range dists {
			if trial%2 == 0 {
				dists[j] = rng.Float64() * 10
			} else {
				dists[j] = float64(rng.Intn(2 * n))
			}
		}
		if trial%3 == 0 {
			dists[rng.Intn(n)] = dists[rng.Intn(n)]
		}
		if trial%7 == 0 {
			dists[rng.Intn(n)] = nan
		}
		check(fmt.Sprintf("random %d", trial), dists)
	}
}
