package core

import (
	"fmt"
	"math"
	"slices"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
)

// Location is a localization estimate: the best-matching grid cell plus a
// fine-grained continuous position refined from the k nearest fingerprint
// columns.
type Location struct {
	// Cell is the best-matching grid cell index.
	Cell int
	// Point is the fine-grained position estimate in metres.
	Point geom.Point
	// Distance is the fingerprint-space distance to the winning column.
	Distance float64
	// Confidence is the probabilistic matcher's posterior mass of the
	// winning cell (1 = certain); 0 when the matcher does not compute it.
	Confidence float64
}

// Matcher compares a live measurement vector against a zone's immutable
// Model and produces a location estimate. Implementations must be safe
// for concurrent use after construction: the Model carries every piece
// of shared read state (database, grid, observed mask), and all mutable
// per-call state lives in the Scratch, so the same Matcher value may
// serve any number of goroutines at once.
type Matcher interface {
	// Match locates the measurement vector y (length M) against the
	// model. sc holds the reusable working buffers; implementations must
	// tolerate nil by borrowing from the shared pool.
	Match(m *Model, y []float64, sc *Scratch) (Location, error)
}

// NNMatcher is the plain nearest-neighbour matcher: the estimated
// location is the cell whose fingerprint column is closest to y in
// Euclidean distance.
type NNMatcher struct{}

// Match implements Matcher.
//
//tafloc:noalloc steady-state matching must not allocate (PR 5 pin, AllocsPerRun-tested); growth happens only inside the Scratch.
func (NNMatcher) Match(m *Model, y []float64, sc *Scratch) (Location, error) {
	if err := checkMatch(m, y); err != nil {
		return Location{}, err
	}
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	dists := sc.distances(m.x.Cols())
	columnDistsInto(dists, m.x, y)
	best, bestD := -1, math.Inf(1)
	for j, d := range dists {
		if d < bestD {
			best, bestD = j, d
		}
	}
	return Location{Cell: best, Point: m.layout.Grid.Center(best), Distance: bestD}, nil
}

// KNNMatcher refines the estimate to sub-cell granularity by averaging
// the centres of the K best-matching cells with inverse-distance weights —
// the paper's "fine-grained" output.
type KNNMatcher struct {
	// K is the neighbour count (default 3 when zero).
	K int
}

// Match implements Matcher.
//
//tafloc:noalloc steady-state matching must not allocate; see NNMatcher.Match.
func (km KNNMatcher) Match(m *Model, y []float64, sc *Scratch) (Location, error) {
	if err := checkMatch(m, y); err != nil {
		return Location{}, err
	}
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	k := km.K
	if k <= 0 {
		k = 3
	}
	if k > m.x.Cols() {
		k = m.x.Cols()
	}
	dists := sc.distances(m.x.Cols())
	columnDistsInto(dists, m.x, y)
	cands := nearestCands(sc, dists, k)
	var wsum float64
	var px, py float64
	const eps = 1e-6
	for _, c := range cands {
		w := 1 / (c.d + eps)
		p := m.layout.Grid.Center(c.j)
		px += w * p.X
		py += w * p.Y
		wsum += w
	}
	return Location{
		Cell:     cands[0].j,
		Point:    geom.Point{X: px / wsum, Y: py / wsum},
		Distance: cands[0].d,
	}, nil
}

// BayesMatcher assumes i.i.d. Gaussian measurement noise per link and
// returns the maximum-a-posteriori cell together with its posterior mass,
// refining the point estimate with the posterior-weighted centroid over
// the top cells.
type BayesMatcher struct {
	// SigmaDB is the assumed per-link noise standard deviation
	// (default 2 dB when zero).
	SigmaDB float64
}

// Match implements Matcher.
//
//tafloc:noalloc steady-state matching must not allocate; see NNMatcher.Match.
func (bm BayesMatcher) Match(m *Model, y []float64, sc *Scratch) (Location, error) {
	if err := checkMatch(m, y); err != nil {
		return Location{}, err
	}
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	sigma := bm.SigmaDB
	if sigma <= 0 {
		sigma = 2
	}
	n := m.x.Cols()
	dists := sc.distances(n)
	columnDistsInto(dists, m.x, y)
	logp, post := sc.posteriors(n)
	maxLog := math.Inf(-1)
	for j := 0; j < n; j++ {
		d := dists[j]
		logp[j] = -d * d / (2 * sigma * sigma)
		if logp[j] > maxLog {
			maxLog = logp[j]
		}
	}
	var total float64
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
		p := m.layout.Grid.Center(j)
		px += post[j] * p.X
		py += post[j] * p.Y
	}
	return Location{
		Cell:       best,
		Point:      geom.Point{X: px, Y: py},
		Distance:   dists[best],
		Confidence: bestP,
	}, nil
}

// WeightedKNNMatcher is the mask-aware matcher the TafLoc System uses
// after a low-cost update: each fingerprint entry is weighted by the
// inverse of its error variance, so measured entries (fresh vacant
// captures and reference columns, ~survey-noise accurate) dominate the
// coarse cell selection while reconstructed entries (LoLi-IR output with
// a few dB of error) refine it with an appropriate discount. The exact
// entries give an implicit triangulation: a candidate cell whose covered
// link set disagrees with the live vector is rejected on near-noiseless
// evidence. The observed-entry mask travels in the Model, so one matcher
// value serves every calibration generation.
type WeightedKNNMatcher struct {
	// ObsSigmaDB is the error std of measured entries (default 0.5).
	ObsSigmaDB float64
	// RecSigmaDB is the error std of reconstructed entries (default 4).
	RecSigmaDB float64
	// LiveSigmaDB is the live-measurement noise std (default 0.7).
	LiveSigmaDB float64
	// K is the neighbour count for the centroid refinement (default 3).
	K int
	// Refine enables the sub-cell refinement stage: a local grid search
	// over bilinearly interpolated fingerprints around the best cell,
	// exploiting the paper's continuity property. It helps on a freshly
	// surveyed database; on a reconstructed database the interpolation
	// can chase reconstruction error, so it is opt-in.
	Refine bool
	// RefineRadiusM and RefineStepM control the refinement search
	// (defaults 0.9 m and 0.1 m).
	RefineRadiusM float64
	RefineStepM   float64
}

// Match implements Matcher.
//
//tafloc:noalloc steady-state matching must not allocate; see NNMatcher.Match.
func (wm WeightedKNNMatcher) Match(m *Model, y []float64, sc *Scratch) (Location, error) {
	if err := checkMatch(m, y); err != nil {
		return Location{}, err
	}
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	obsSigma := wm.ObsSigmaDB
	if obsSigma <= 0 {
		obsSigma = 0.5
	}
	recSigma := wm.RecSigmaDB
	if recSigma <= 0 {
		recSigma = 4
	}
	liveSigma := wm.LiveSigmaDB
	if liveSigma <= 0 {
		liveSigma = 0.7
	}
	wObs := 1 / (obsSigma*obsSigma + liveSigma*liveSigma)
	wRec := 1 / (recSigma*recSigma + liveSigma*liveSigma)
	x, obs, grid := m.x, m.observed, m.layout.Grid
	k := wm.K
	if k <= 0 {
		k = 3
	}
	if k > x.Cols() {
		k = x.Cols()
	}
	dists := sc.distances(x.Cols())
	weightedDistsInto(dists, x, obs, y, wObs, wRec)
	cands := nearestCands(sc, dists, k)
	var wsum, px, py float64
	const eps = 1e-6
	for _, c := range cands {
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
	if !wm.Refine {
		return loc, nil
	}
	// Sub-cell refinement: the paper's continuity property means the
	// fingerprint varies smoothly between neighbouring cells, so the
	// database supports bilinear interpolation to a virtual fine grid. A
	// local search around the coarse estimate picks the continuous
	// position whose interpolated fingerprint best explains y.
	radius := wm.RefineRadiusM
	if radius <= 0 {
		radius = 0.9
	}
	step := wm.RefineStepM
	if step <= 0 {
		step = 0.1
	}
	center := grid.Center(loc.Cell)
	bestP := loc.Point
	bestD := math.Inf(1)
	f, fObs := sc.interp(x.Rows())
	for dx := -radius; dx <= radius; dx += step {
		for dy := -radius; dy <= radius; dy += step {
			p := geom.Point{X: center.X + dx, Y: center.Y + dy}
			if p.X < 0 || p.X > grid.Width || p.Y < 0 || p.Y > grid.Height {
				continue
			}
			interpFingerprint(x, obs, grid, p, f, fObs)
			var s float64
			for i := range f {
				d := f[i] - y[i]
				w := wObs
				if !fObs[i] {
					w = wRec
				}
				s += w * d * d
			}
			if s < bestD {
				bestD = s
				bestP = p
			}
		}
	}
	if !math.IsInf(bestD, 1) {
		loc.Point = bestP
		loc.Distance = math.Sqrt(bestD)
		if c := grid.CellAt(bestP); c >= 0 {
			loc.Cell = c
		}
	}
	return loc, nil
}

// interpFingerprint fills f with the bilinear interpolation of the
// database columns at point p, and fObs with whether all four
// interpolation corners of that link's entry are observed. Points beyond
// the cell-centre lattice clamp to the border cells.
func interpFingerprint(x, obs *mat.Matrix, grid *geom.Grid, p geom.Point, f []float64, fObs []bool) {
	nx, ny := grid.NX(), grid.NY()
	u := p.X/grid.CellSize - 0.5
	v := p.Y/grid.CellSize - 0.5
	clampF := func(val float64, hi int) (int, int, float64) {
		f0 := math.Floor(val)
		i0 := int(f0)
		i1 := i0 + 1
		if i0 < 0 {
			return 0, 0, 0
		}
		if i1 >= hi {
			return hi - 1, hi - 1, 0
		}
		return i0, i1, val - f0
	}
	ix0, ix1, fx := clampF(u, nx)
	iy0, iy1, fy := clampF(v, ny)
	j00 := iy0*nx + ix0
	j10 := iy0*nx + ix1
	j01 := iy1*nx + ix0
	j11 := iy1*nx + ix1
	for i := 0; i < x.Rows(); i++ {
		g00 := x.At(i, j00)
		g10 := x.At(i, j10)
		g01 := x.At(i, j01)
		g11 := x.At(i, j11)
		f[i] = (1-fy)*((1-fx)*g00+fx*g10) + fy*((1-fx)*g01+fx*g11)
		if obs == nil {
			fObs[i] = true
		} else {
			fObs[i] = obs.At(i, j00) == 1 && obs.At(i, j10) == 1 &&
				obs.At(i, j01) == 1 && obs.At(i, j11) == 1
		}
	}
}

// Detector decides whether a target is present at all by comparing a live
// measurement vector against the vacant baseline — the gate in front of
// localization for intruder-detection workloads.
type Detector struct {
	// Vacant is the empty-room RSS per link.
	Vacant []float64
	// ThresholdDB is the mean absolute deviation (dB across links) above
	// which a target is declared present (default 1 dB when zero).
	ThresholdDB float64
}

// Present reports whether y indicates a target in the area, along with
// the measured mean absolute deviation from the vacant baseline.
func (d Detector) Present(y []float64) (bool, float64) {
	if len(y) != len(d.Vacant) {
		return false, 0
	}
	thr := d.ThresholdDB
	if thr <= 0 {
		thr = 1
	}
	var dev float64
	for i := range y {
		dev += math.Abs(y[i] - d.Vacant[i])
	}
	dev /= float64(len(y))
	return dev > thr, dev
}

// nearestCands returns the k (1 <= k <= len(dists)) candidates nearest
// to the live vector, nearest first: exactly the first k of sortCands
// over every candidate, found in one pass that keeps a sorted top-k
// list in the first k slots of the Scratch's candidate buffer. That
// prefix is unique — and so independent of the sort algorithm — unless
// an exact tie touches the top k or a distance is NaN (which compares
// equal to everything). On either, the pass stops and sorts all
// candidates with sortCands instead, so the unstable sort's tie order,
// which every estimate has always followed, is kept bit for bit.
//
//tafloc:noalloc steady state reuses the Scratch's candidate buffer; only its amortized grow allocates.
func nearestCands(sc *Scratch, dists []float64, k int) []cand {
	cands := sc.candidates(len(dists))
	top := cands[:0]
	limit := math.Inf(1) // distance of the k-th kept candidate once k are kept
	for j, d := range dists {
		if d > limit {
			continue
		}
		p := len(top)
		for p > 0 && d < top[p-1].d {
			p--
		}
		if d != d || (p > 0 && top[p-1].d == d) {
			for i, di := range dists {
				cands[i] = cand{i, di}
			}
			sortCands(cands)
			return cands[:k]
		}
		if len(top) < k {
			top = top[:len(top)+1]
		}
		copy(top[p+1:], top[p:])
		top[p] = cand{j, d}
		if len(top) == k {
			limit = top[k-1].d
		}
	}
	return top
}

// sortCands orders candidates by ascending distance — the same
// comparison the matchers have always used, so sorted output (and thus
// every location estimate) is unchanged by the scratch refactor.
//
//tafloc:noalloc the comparator captures nothing, so the func literal is a static singleton and SortFunc sorts in place.
func sortCands(cands []cand) {
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.d < b.d:
			return -1
		case b.d < a.d:
			return 1
		default:
			return 0
		}
	})
}

// columnDistsInto fills dst with the Euclidean distance from y to every
// fingerprint column, fanning column ranges out across the mat worker
// pool when the database is large enough to pay for it. The
// single-chunk case runs inline — no goroutines, no closure — so
// small-database matching allocates nothing; either way every column
// sums the same terms in the same order, so results are bitwise
// independent of the worker count.
//
//tafloc:noalloc the FanOut gate keeps the common small-database case on the closure-free path; only the fanned-out path pays the one closure.
func columnDistsInto(dst []float64, x *mat.Matrix, y []float64) {
	n := x.Cols()
	if !mat.FanOut(n, matchChunk(x.Rows())) {
		columnDistsRange(dst, x, y, 0, n)
		return
	}
	//tafloc:alloc-ok one closure per fanned-out round, amortized over >=1 chunk of per-cell work each worth thousands of flops
	mat.ParallelFor(n, matchChunk(x.Rows()), func(lo, hi int) {
		columnDistsRange(dst, x, y, lo, hi)
	})
}

// columnDistsRange computes dst[lo:hi], the distances to columns
// [lo, hi), in one row-major pass over the database: row i adds its
// squared deviation to every column's running sum before row i+1 does,
// so each column still accumulates its terms in link order with the
// same d*d expression, and keeps its bits, while the walk stays
// sequential in memory.
//
//tafloc:noalloc pure arithmetic over caller-owned slices.
func columnDistsRange(dst []float64, x *mat.Matrix, y []float64, lo, hi int) {
	n, raw := x.Cols(), x.Raw()
	acc := dst[lo:hi]
	clear(acc)
	for i, yi := range y {
		row := raw[i*n+lo : i*n+hi]
		row = row[:len(acc)] // equal lengths drop the inner bounds checks
		for j := range acc {
			d := row[j] - yi
			acc[j] += d * d
		}
	}
	for j, s := range acc {
		acc[j] = math.Sqrt(s)
	}
}

// weightedDistsInto is columnDistsInto with per-entry inverse-variance
// weights: wObs for observed (measured) entries, wRec for reconstructed
// ones. A nil observed mask weighs every entry wObs.
//
//tafloc:noalloc same shape as columnDistsInto: closure-free unless the database is large enough to fan out.
func weightedDistsInto(dst []float64, x, obs *mat.Matrix, y []float64, wObs, wRec float64) {
	n := x.Cols()
	if !mat.FanOut(n, matchChunk(x.Rows())) {
		weightedDistsRange(dst, x, obs, y, wObs, wRec, 0, n)
		return
	}
	//tafloc:alloc-ok one closure per fanned-out round; see columnDistsInto
	mat.ParallelFor(n, matchChunk(x.Rows()), func(lo, hi int) {
		weightedDistsRange(dst, x, obs, y, wObs, wRec, lo, hi)
	})
}

// weightedDistsRange is columnDistsRange with the w*d*d terms of
// weightedDistsInto.
//
//tafloc:noalloc pure arithmetic over caller-owned slices.
func weightedDistsRange(dst []float64, x, obs *mat.Matrix, y []float64, wObs, wRec float64, lo, hi int) {
	n, raw := x.Cols(), x.Raw()
	acc := dst[lo:hi]
	clear(acc)
	for i, yi := range y {
		row := raw[i*n+lo : i*n+hi]
		row = row[:len(acc)]
		if obs == nil {
			for j := range acc {
				d := row[j] - yi
				acc[j] += wObs * d * d
			}
			continue
		}
		mask := obs.Raw()[i*n+lo : i*n+hi]
		mask = mask[:len(acc)]
		for j := range acc {
			d := row[j] - yi
			w := wObs
			if mask[j] == 0 {
				w = wRec
			}
			acc[j] += w * d * d
		}
	}
	for j, s := range acc {
		acc[j] = math.Sqrt(s)
	}
}

// matchChunk sizes per-cell matching chunks: ~4 flops per link entry
// (subtract, square, accumulate, optional weight).
func matchChunk(links int) int {
	if links < 1 {
		links = 1
	}
	return mat.ChunkFor(4 * links)
}

func checkMatch(m *Model, y []float64) error {
	if m == nil || m.x == nil || m.x.Cols() == 0 {
		return fmt.Errorf("core: nil model or empty fingerprint matrix")
	}
	if len(y) != m.x.Rows() {
		return fmt.Errorf("core: measurement length %d != links %d", len(y), m.x.Rows())
	}
	return nil
}
