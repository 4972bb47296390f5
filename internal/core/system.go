package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tafloc/internal/mat"
	"tafloc/taflocerr"
)

// SystemOptions configures a System.
type SystemOptions struct {
	// LoLi are the reconstruction hyperparameters.
	LoLi LoLiOptions
	// Refs controls reference-location selection.
	Refs ReferenceOptions
	// MatcherName selects the matcher by registry name. The name "wknn"
	// (or empty) selects the built-in mask-aware WeightedKNNMatcher,
	// which reads the observed-entry mask from the current Model on
	// every call; any other name is resolved through NewMatcherByName at
	// construction, so an unknown name fails fast. A custom matcher is
	// installed with RegisterMatcher and selected here by its name.
	MatcherName string
	// RecSigmaDB is the assumed error std of reconstructed entries for
	// the built-in weighted matcher (default 4 dB, the paper's 3-month
	// reconstruction error scale).
	RecSigmaDB float64
	// MaskThresholdDB is the |survey - vacant| deviation above which an
	// entry counts as largely distorted when the mask is learned from the
	// day-0 survey (default 1.5 dB). Zero keeps the default; negative
	// forces the geometric ellipse mask instead.
	MaskThresholdDB float64
}

// DefaultSystemOptions returns the configuration used throughout the
// reproduction: built-in weighted matching.
func DefaultSystemOptions() SystemOptions {
	return SystemOptions{
		LoLi: DefaultLoLiOptions(),
		Refs: DefaultReferenceOptions(),
	}
}

// System is the end-to-end TafLoc pipeline, split into two planes. The
// calibration plane (this struct) owns the undistorted-entry mask and
// the construction options; it is the only writer. The read plane is an
// immutable Model — radio map, geometry, observed mask, matcher, and
// vacant baseline frozen together — published through an atomic
// pointer. Locate never takes a lock: it
// loads the current Model and matches against it, so any number of
// goroutines can localize concurrently while Update reconstructs;
// Update builds a complete new Model and swaps the pointer (RCU style),
// leaving in-flight readers on the old one. Calibration writers
// (Update, Reselect) serialize on an internal mutex.
//
// Each Update builds its own LoLi-IR reconstructor and drops it when it
// returns, so a System between updates holds no solver state: on the
// 12 m room a reconstructor's pair lists take about as much heap as the
// radio map, and building one takes about 0.2 ms of a half-second
// update. Its inputs, the mask and the LoLi options, are validated at
// construction, so the build cannot fail on them.
type System struct {
	layout  *Layout
	opts    SystemOptions
	mask    *mat.Matrix // undistorted-entry mask, M x N; never mutated
	matcher Matcher     // resolved once at construction; never nil

	//tafloc:lock-order 60 calibration writer lock; innermost — never wraps a serve-layer lock
	calMu sync.Mutex // serializes calibration writers
	model atomic.Pointer[Model]
}

// NewSystem builds a System from the day-0 full survey.
//
// survey is the full M x N fingerprint matrix; vacant the empty-room RSS
// per link at survey time. Every entry must lie in [MinRSS, MaxRSS], the
// range RestoreSystem accepts, so that every System can be restored
// from its own export; anything else is a CodeBadRequest error.
func NewSystem(layout *Layout, survey *mat.Matrix, vacant []float64, opts SystemOptions) (*System, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil layout")
	}
	if survey == nil || survey.Rows() != layout.M() || survey.Cols() != layout.N() {
		return nil, fmt.Errorf("core: survey must be %dx%d", layout.M(), layout.N())
	}
	if len(vacant) != layout.M() {
		return nil, fmt.Errorf("core: vacant must have length %d", layout.M())
	}
	if !inRSSRange(survey.Raw()) {
		return nil, errRSSRange("survey")
	}
	if !inRSSRange(vacant) {
		return nil, errRSSRange("vacant baseline")
	}
	if err := opts.LoLi.Validate(); err != nil {
		return nil, err
	}
	// Learn the undistorted-entry mask from the survey itself: the true
	// sensitive band of each link is shaped by multipath, so the measured
	// deviation from the vacant baseline beats the geometric ellipse.
	var mask *mat.Matrix
	if opts.MaskThresholdDB >= 0 {
		thr := opts.MaskThresholdDB
		if thr == 0 {
			thr = 1.5
		}
		var err error
		if mask, err = MaskFromSurvey(survey, vacant, thr); err != nil {
			return nil, err
		}
	} else {
		mask = layout.Mask()
	}
	refs, err := SelectReferences(survey, opts.Refs)
	if err != nil {
		return nil, err
	}
	matcher, err := resolveMatcher(opts)
	if err != nil {
		return nil, err
	}
	s := &System{
		layout:  layout,
		opts:    opts,
		mask:    mask,
		matcher: matcher,
	}
	s.install(survey.Clone(), nil, append([]float64(nil), vacant...), refs)
	return s, nil
}

// resolveMatcher builds the matcher a System localizes with from its
// registry name, for NewSystem and RestoreSystem alike, so the name a
// snapshot records is the matcher that runs. "wknn" and the empty name
// select the built-in mask-aware weighted matcher at opts.RecSigmaDB
// (the observed mask itself travels in each Model). A non-finite
// RecSigmaDB is rejected whatever the name, as a snapshot records it.
func resolveMatcher(opts SystemOptions) (Matcher, error) {
	if math.IsNaN(opts.RecSigmaDB) || math.IsInf(opts.RecSigmaDB, 0) {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"core: RecSigmaDB must be finite, have %g", opts.RecSigmaDB)
	}
	if opts.MatcherName == "" || opts.MatcherName == MatcherWKNN {
		return WeightedKNNMatcher{RecSigmaDB: opts.RecSigmaDB}, nil
	}
	return NewMatcherByName(opts.MatcherName)
}

// install publishes a new immutable Model assembled from freshly built
// (never again mutated) parts, under a fresh install stamp.
func (s *System) install(x, observed *mat.Matrix, vacant []float64, refs []int) {
	s.model.Store(&Model{
		layout:   s.layout,
		x:        x,
		observed: observed,
		vacant:   vacant,
		refs:     refs,
		matcher:  s.matcher,
		stamp:    installs.Add(1),
	})
}

// Layout returns the deployment geometry.
func (s *System) Layout() *Layout { return s.layout }

// Model returns the current immutable read plane. The Model never
// changes after publication, so the caller may localize against it from
// any number of goroutines, and may keep using it after a concurrent
// Update swaps in a successor (it then serves the older calibration).
func (s *System) Model() *Model { return s.model.Load() }

// Mask returns the undistorted-entry mask the system reconstructs with
// (1 = undistorted; learned from the day-0 survey by default).
func (s *System) Mask() *mat.Matrix { return s.mask.Clone() }

// References returns the current reference cell indices (copy).
func (s *System) References() []int { return s.model.Load().References() }

// Fingerprints returns a copy of the current fingerprint database.
func (s *System) Fingerprints() *mat.Matrix { return s.model.Load().Fingerprints() }

// Vacant returns a copy of the current vacant baseline.
func (s *System) Vacant() []float64 { return s.model.Load().Vacant() }

// UpdateContext performs a TafLoc low-cost fingerprint update: given
// fresh measurements at the reference locations (refCols, M x len(refs)
// in the order returned by References) and a fresh vacant capture, it
// reconstructs the whole database with LoLi-IR and publishes it as a
// new Model. The LoLi-IR solver checks ctx once per outer iteration,
// so a long reconstruction terminates promptly when ctx is cancelled
// and the previous Model stays published. Measurements that are non-finite or outside [MinRSS,
// MaxRSS] are rejected with CodeBadRequest before any work, and the
// previous Model stays published.
func (s *System) UpdateContext(ctx context.Context, refCols *mat.Matrix, vacant []float64) (*Reconstruction, error) {
	if refCols != nil && !inRSSRange(refCols.Raw()) {
		return nil, errRSSRange("reference measurements")
	}
	if !inRSSRange(vacant) {
		return nil, errRSSRange("vacant baseline")
	}
	s.calMu.Lock()
	defer s.calMu.Unlock()
	rc, err := NewReconstructorWithMask(s.layout, s.mask, s.opts.LoLi)
	if err != nil {
		return nil, err
	}
	refs := s.model.Load().refs

	rec, err := rc.ReconstructContext(ctx, UpdateInput{
		RefIdx:  refs,
		RefCols: refCols,
		Vacant:  vacant,
	})
	if err != nil {
		return nil, err
	}
	s.install(rec.X, rec.Observed, append([]float64(nil), vacant...), refs)
	return rec, nil
}

// Reselect re-derives the reference set from the current database, e.g.
// after an update revealed structural change. The new Model shares the
// (immutable) database of the old one and differs only in its reference
// cells.
func (s *System) Reselect() ([]int, error) {
	s.calMu.Lock()
	defer s.calMu.Unlock()
	m := s.model.Load()
	refs, err := SelectReferences(m.x, s.opts.Refs)
	if err != nil {
		return nil, err
	}
	s.install(m.x, m.observed, m.vacant, refs)
	return append([]int(nil), refs...), nil
}

// Locate matches a live measurement vector against the current Model.
// With the default options it uses the mask-aware weighted matcher, which
// trusts measured entries (vacant fills and reference columns) above
// LoLi-IR-reconstructed ones. The steady state is allocation-free: the
// working buffers come from Model.Locate's Scratch pool, and the Model
// read is one atomic load, so concurrent callers never contend.
func (s *System) Locate(y []float64) (Location, error) {
	return s.model.Load().Locate(y, nil)
}

// Detect reports whether a target is present, using the current vacant
// baseline.
func (s *System) Detect(y []float64, thresholdDB float64) (bool, float64) {
	return s.model.Load().Detect(y, thresholdDB)
}
