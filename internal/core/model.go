package core

import (
	"fmt"
	"sync/atomic"

	"tafloc/internal/mat"
)

// Model is the immutable read plane of a calibrated zone: the
// fingerprint database (radio map), the deployment geometry, the
// observed-entry mask, the resolved matcher, and the detector's vacant
// baseline, frozen together at one calibration instant. A Model is
// never mutated after construction, so any number of goroutines may
// Locate against the same Model — or against different Models of the
// same System mid-swap — without locks. System publishes its current
// Model through an atomic pointer and replaces it wholesale on every
// Update (RCU style): readers that loaded the old Model keep a fully
// consistent view, never a torn mix of old and new calibration.
type Model struct {
	layout   *Layout
	x        *mat.Matrix // fingerprint database, M x N
	observed *mat.Matrix // nil = every entry measured (full survey)
	vacant   []float64   // vacant baseline (detector reference), length M
	refs     []int       // reference cell indices
	matcher  Matcher     // resolved matcher; never nil
	stamp    uint64      // install stamp (see Stamp); 0 for NewModel's
}

// installs numbers the Models Systems install, process-wide.
var installs atomic.Uint64

// Stamp returns the install stamp of m: nonzero and unique within the
// process for every Model a System installed (NewSystem, UpdateContext,
// Reselect, RestoreSystem), and 0 for a Model built by NewModel. Two
// stamps are equal only for the same Model, so a caller can record
// which Model it saw as a number, without keeping that Model reachable
// and without trusting an address that may be reused.
func Stamp(m *Model) uint64 { return m.stamp }

// NewModel assembles an immutable Model from its parts. The Model takes
// ownership of every argument — callers must not mutate x, observed,
// vacant, or refs afterwards; immutability is what makes the Model safe
// to share without locks. A nil matcher selects the mask-aware
// WeightedKNNMatcher. vacant and refs may be nil for matcher-only use
// (Detect and References are then unavailable).
func NewModel(layout *Layout, x, observed *mat.Matrix, vacant []float64, refs []int, matcher Matcher) (*Model, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil layout")
	}
	m, n := layout.M(), layout.N()
	if x == nil || x.Rows() != m || x.Cols() != n {
		return nil, fmt.Errorf("core: model database must be %dx%d", m, n)
	}
	if observed != nil && (observed.Rows() != m || observed.Cols() != n) {
		return nil, fmt.Errorf("core: observed mask must be %dx%d", m, n)
	}
	if vacant != nil && len(vacant) != m {
		return nil, fmt.Errorf("core: vacant baseline must have length %d", m)
	}
	for _, r := range refs {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("core: reference cell %d out of range %d", r, n)
		}
	}
	if matcher == nil {
		matcher = WeightedKNNMatcher{}
	}
	return &Model{layout: layout, x: x, observed: observed, vacant: vacant, refs: refs, matcher: matcher}, nil
}

// Layout returns the deployment geometry.
func (m *Model) Layout() *Layout { return m.layout }

// Fingerprints returns a copy of the fingerprint database.
func (m *Model) Fingerprints() *mat.Matrix { return m.x.Clone() }

// Observed returns a copy of the observed-entry mask, or nil when every
// entry is measured.
func (m *Model) Observed() *mat.Matrix {
	if m.observed == nil {
		return nil
	}
	return m.observed.Clone()
}

// Vacant returns a copy of the vacant baseline.
func (m *Model) Vacant() []float64 { return append([]float64(nil), m.vacant...) }

// References returns a copy of the reference cell indices.
func (m *Model) References() []int { return append([]int(nil), m.refs...) }

// Matcher returns the resolved matcher the model localizes with.
func (m *Model) Matcher() Matcher { return m.matcher }

// Locate matches a live measurement vector against the model. sc holds
// the per-call working buffers; passing the same Scratch across calls
// makes the steady state allocation-free. A nil sc borrows one from the
// shared pool and returns it afterwards — the only place a Scratch is
// pooled, so a matcher always receives one. Locate is safe to call from
// any number of goroutines concurrently (each with its own Scratch).
func (m *Model) Locate(y []float64, sc *Scratch) (Location, error) {
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	return m.matcher.Match(m, y, sc)
}

// Detect reports whether a target is present, comparing y against the
// model's vacant baseline with the plain MAD detector.
func (m *Model) Detect(y []float64, thresholdDB float64) (bool, float64) {
	return Detector{Vacant: m.vacant, ThresholdDB: thresholdDB}.Present(y)
}
