package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
)

// This file pins the scratch refactor to the pre-refactor matchers: the
// reference implementations below are verbatim copies of the match code
// as it stood before Matcher took a Model and a Scratch (per-call
// allocation, sort.Slice, closure-based weighted distance). Every
// matcher must produce bit-identical Locations — equality is ==, not a
// tolerance.

func refNNMatch(x *mat.Matrix, grid *geom.Grid, y []float64) Location {
	dists := refColumnDists(x, y)
	best, bestD := -1, math.Inf(1)
	for j, d := range dists {
		if d < bestD {
			best, bestD = j, d
		}
	}
	return Location{Cell: best, Point: grid.Center(best), Distance: bestD}
}

func refKNNMatch(k int, x *mat.Matrix, grid *geom.Grid, y []float64) Location {
	if k <= 0 {
		k = 3
	}
	if k > x.Cols() {
		k = x.Cols()
	}
	dists := refColumnDists(x, y)
	type cand struct {
		j int
		d float64
	}
	cands := make([]cand, x.Cols())
	for j, d := range dists {
		cands[j] = cand{j, d}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	var wsum float64
	var px, py float64
	const eps = 1e-6
	for _, c := range cands[:k] {
		w := 1 / (c.d + eps)
		p := grid.Center(c.j)
		px += w * p.X
		py += w * p.Y
		wsum += w
	}
	return Location{
		Cell:     cands[0].j,
		Point:    geom.Point{X: px / wsum, Y: py / wsum},
		Distance: cands[0].d,
	}
}

func refBayesMatch(sigma float64, x *mat.Matrix, grid *geom.Grid, y []float64) Location {
	if sigma <= 0 {
		sigma = 2
	}
	n := x.Cols()
	dists := refColumnDists(x, y)
	logp := make([]float64, n)
	maxLog := math.Inf(-1)
	for j := 0; j < n; j++ {
		d := dists[j]
		logp[j] = -d * d / (2 * sigma * sigma)
		if logp[j] > maxLog {
			maxLog = logp[j]
		}
	}
	var total float64
	post := make([]float64, n)
	for j := range post {
		post[j] = math.Exp(logp[j] - maxLog)
		total += post[j]
	}
	best, bestP := 0, 0.0
	var px, py float64
	for j := range post {
		post[j] /= total
		if post[j] > bestP {
			best, bestP = j, post[j]
		}
		p := grid.Center(j)
		px += post[j] * p.X
		py += post[j] * p.Y
	}
	return Location{
		Cell:       best,
		Point:      geom.Point{X: px, Y: py},
		Distance:   dists[best],
		Confidence: bestP,
	}
}

func refWKNNMatch(m WeightedKNNMatcher, observed *mat.Matrix, x *mat.Matrix, grid *geom.Grid, y []float64) Location {
	obsSigma := m.ObsSigmaDB
	if obsSigma <= 0 {
		obsSigma = 0.5
	}
	recSigma := m.RecSigmaDB
	if recSigma <= 0 {
		recSigma = 4
	}
	liveSigma := m.LiveSigmaDB
	if liveSigma <= 0 {
		liveSigma = 0.7
	}
	wObs := 1 / (obsSigma*obsSigma + liveSigma*liveSigma)
	wRec := 1 / (recSigma*recSigma + liveSigma*liveSigma)
	dist := func(j int) float64 {
		var s float64
		for i := 0; i < x.Rows(); i++ {
			d := x.At(i, j) - y[i]
			w := wObs
			if observed != nil && observed.At(i, j) == 0 {
				w = wRec
			}
			s += w * d * d
		}
		return math.Sqrt(s)
	}
	k := m.K
	if k <= 0 {
		k = 3
	}
	if k > x.Cols() {
		k = x.Cols()
	}
	type cand struct {
		j int
		d float64
	}
	cands := make([]cand, x.Cols())
	for j := range cands {
		cands[j] = cand{j, dist(j)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	var wsum, px, py float64
	const eps = 1e-6
	for _, c := range cands[:k] {
		w := 1 / (c.d + eps)
		p := grid.Center(c.j)
		px += w * p.X
		py += w * p.Y
		wsum += w
	}
	loc := Location{
		Cell:     cands[0].j,
		Point:    geom.Point{X: px / wsum, Y: py / wsum},
		Distance: cands[0].d,
	}
	return loc
}

func refColumnDists(x *mat.Matrix, y []float64) []float64 {
	dists := make([]float64, x.Cols())
	for j := range dists {
		dists[j] = refColumnDist(x, j, y)
	}
	return dists
}

// refColumnDist is the column-by-column distance the matchers used
// before the row-major kernel.
func refColumnDist(x *mat.Matrix, j int, y []float64) float64 {
	var s float64
	for i := 0; i < x.Rows(); i++ {
		d := x.At(i, j) - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestMatcherParityWithPreRefactor runs all four matchers over a bank of
// noisy measurements and requires exact equality with the pre-refactor
// reference implementations, with and without an observed-entry mask,
// with default and non-default parameters, and with a shared reused
// Scratch (the steady-state serving pattern) as well as fresh ones.
func TestMatcherParityWithPreRefactor(t *testing.T) {
	l := testLayout(t)
	rng := rand.New(rand.NewSource(41))
	truth, vac := syntheticTruth(l, rng)

	// A plausible observed mask: measured entries where the survey sits
	// near the vacant baseline plus a scattering of "reference columns".
	observed := mat.New(truth.Rows(), truth.Cols())
	for i := 0; i < truth.Rows(); i++ {
		for j := 0; j < truth.Cols(); j++ {
			if math.Abs(truth.At(i, j)-vac[i]) < 1.5 || j%7 == 0 {
				observed.Set(i, j, 1)
			}
		}
	}

	bare := mustModel(t, l, truth)
	masked, err := NewModel(l, truth, observed, vac, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	var ys [][]float64
	for k := 0; k < 25; k++ {
		y := truth.Col(rng.Intn(truth.Cols()))
		for i := range y {
			y[i] += 1.2 * rng.NormFloat64()
		}
		ys = append(ys, y)
	}

	shared := NewScratch()
	for yi, y := range ys {
		type pinned struct {
			name string
			got  Location
			err  error
			want Location
		}
		cases := []pinned{}

		got, err := NNMatcher{}.Match(bare, y, shared)
		cases = append(cases, pinned{"nn", got, err, refNNMatch(truth, l.Grid, y)})

		got, err = KNNMatcher{K: 4}.Match(bare, y, shared)
		cases = append(cases, pinned{"knn", got, err, refKNNMatch(4, truth, l.Grid, y)})

		got, err = KNNMatcher{}.Match(bare, y, NewScratch())
		cases = append(cases, pinned{"knn-default", got, err, refKNNMatch(0, truth, l.Grid, y)})

		got, err = BayesMatcher{SigmaDB: 1.5}.Match(bare, y, shared)
		cases = append(cases, pinned{"bayes", got, err, refBayesMatch(1.5, truth, l.Grid, y)})

		wm := WeightedKNNMatcher{}
		got, err = wm.Match(bare, y, shared)
		cases = append(cases, pinned{"wknn-bare", got, err, refWKNNMatch(wm, nil, truth, l.Grid, y)})

		got, err = wm.Match(masked, y, shared)
		cases = append(cases, pinned{"wknn-masked", got, err, refWKNNMatch(wm, observed, truth, l.Grid, y)})

		wr := WeightedKNNMatcher{K: 4, RecSigmaDB: 3}
		got, err = wr.Match(masked, y, shared)
		cases = append(cases, pinned{"wknn-k4", got, err, refWKNNMatch(wr, observed, truth, l.Grid, y)})

		for _, c := range cases {
			if c.err != nil {
				t.Fatalf("y[%d] %s: %v", yi, c.name, c.err)
			}
			if c.got != c.want {
				t.Errorf("y[%d] %s: %+v != pre-refactor %+v (bit-identity break)", yi, c.name, c.got, c.want)
			}
		}
	}
}

// TestSystemLocateParityWithPreRefactor pins the full System path (the
// built-in mask-aware matcher over a LoLi-IR-reconstructed database,
// i.e. a real Observed mask) to the reference implementation.
func TestSystemLocateParityWithPreRefactor(t *testing.T) {
	f := newSystemFixture(t, 77)
	refCols, _ := f.dep.SurveyCells(f.sys.References(), 30)
	vacant := f.dep.VacantCapture(30, 50)
	if _, err := f.sys.UpdateContext(context.Background(), refCols, vacant); err != nil {
		t.Fatal(err)
	}
	m := f.sys.Model()
	x, observed := m.x, m.observed
	if observed == nil {
		t.Fatal("post-update model has no observed mask")
	}
	for k := 0; k < 10; k++ {
		p := geom.Point{X: 0.4 + 0.5*float64(k), Y: 0.3 + 0.4*float64(k%5)}
		y := f.dep.Channel.MeasureLive(p, 30)
		got, err := f.sys.Locate(y)
		if err != nil {
			t.Fatal(err)
		}
		want := refWKNNMatch(WeightedKNNMatcher{}, observed, x, f.l.Grid, y)
		if got != want {
			t.Errorf("target %d: System.Locate %+v != pre-refactor %+v", k, got, want)
		}
	}
}
