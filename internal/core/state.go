package core

import (
	"math"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/taflocerr"
)

// SystemState is the complete calibrated state of a System: everything an
// identical replacement needs to publish the same estimates without
// redoing the day-0 survey, mask learning, reference selection, or any
// LoLi-IR reconstruction. It is the unit internal/snap serializes for
// warm restarts.
//
// The matcher travels as its registry name: RestoreSystem rebuilds it
// from the registry, so a custom matcher must be registered
// (RegisterMatcher) under the same name in the restoring process, or
// the restore fails closed.
type SystemState struct {
	// Deployment geometry.
	Links         []geom.Segment
	GridWidth     float64
	GridHeight    float64
	GridCellSize  float64
	EllipseExcess float64

	// Construction options.
	LoLi            LoLiOptions
	Refs            ReferenceOptions
	MatcherName     string
	RecSigmaDB      float64
	MaskThresholdDB float64

	// Calibrated state.
	Mask     *mat.Matrix // undistorted-entry mask the reconstructor uses
	X        *mat.Matrix // current fingerprint database (M x N)
	Observed *mat.Matrix // nil = every entry measured (full survey)
	Vacant   []float64   // current vacant baseline (length M)
	RefCells []int       // current reference cell indices
}

// ExportState captures the system's calibrated state as an independent
// deep copy; the system may keep serving (and updating) while the copy is
// serialized. The export reads one immutable Model, so a snapshot taken
// mid-update is always internally consistent — entirely the old
// calibration or entirely the new, never a torn mix.
func (s *System) ExportState() *SystemState {
	m := s.model.Load()
	st := &SystemState{
		Links:           append([]geom.Segment(nil), s.layout.Links...),
		GridWidth:       s.layout.Grid.Width,
		GridHeight:      s.layout.Grid.Height,
		GridCellSize:    s.layout.Grid.CellSize,
		EllipseExcess:   s.layout.EllipseExcess,
		LoLi:            s.opts.LoLi,
		Refs:            s.opts.Refs,
		MatcherName:     s.opts.MatcherName,
		RecSigmaDB:      s.opts.RecSigmaDB,
		MaskThresholdDB: s.opts.MaskThresholdDB,
		Mask:            s.recon.Mask().Clone(),
		X:               m.x.Clone(),
		Vacant:          append([]float64(nil), m.vacant...),
		RefCells:        append([]int(nil), m.refs...),
	}
	if m.observed != nil {
		st.Observed = m.observed.Clone()
	}
	return st
}

// RestoreSystem rebuilds a System from an exported state without any
// recalibration: no survey, no mask learning, no reference selection.
// Every structural invariant is revalidated — a state decoded from an
// untrusted or damaged snapshot fails closed with
// taflocerr.CodeSnapshotCorrupt rather than producing a system that
// panics later.
func RestoreSystem(st *SystemState) (*System, error) {
	if st == nil {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: nil system state")
	}
	grid, err := geom.NewGrid(st.GridWidth, st.GridHeight, st.GridCellSize)
	if err != nil {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: restore: %w", err)
	}
	layout, err := NewLayout(st.Links, grid, st.EllipseExcess)
	if err != nil {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: restore: %w", err)
	}
	m, n := layout.M(), layout.N()
	if st.X == nil || st.X.Rows() != m || st.X.Cols() != n {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"core: restore: fingerprint database must be %dx%d", m, n)
	}
	if !inRSSRange(st.X.Raw()) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"core: restore: fingerprint database has entries that are non-finite or outside [%v, %v] dBm", MinRSS, MaxRSS)
	}
	if st.Observed != nil && (st.Observed.Rows() != m || st.Observed.Cols() != n) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"core: restore: observed mask must be %dx%d", m, n)
	}
	if len(st.Vacant) != m {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"core: restore: vacant baseline must have length %d", m)
	}
	if !inRSSRange(st.Vacant) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"core: restore: vacant baseline has entries that are non-finite or outside [%v, %v] dBm", MinRSS, MaxRSS)
	}
	if len(st.RefCells) == 0 {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: restore: no reference cells")
	}
	for _, r := range st.RefCells {
		if r < 0 || r >= n {
			return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
				"core: restore: reference cell %d out of range %d", r, n)
		}
	}
	recon, err := NewReconstructorWithMask(layout, st.Mask, st.LoLi)
	if err != nil {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: restore: %w", err)
	}
	opts := SystemOptions{
		LoLi:            st.LoLi,
		Refs:            st.Refs,
		MatcherName:     st.MatcherName,
		RecSigmaDB:      st.RecSigmaDB,
		MaskThresholdDB: st.MaskThresholdDB,
	}
	matcher, err := resolveMatcher(opts)
	if err != nil {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "core: restore: %w", err)
	}
	sys := &System{
		layout:  layout,
		opts:    opts,
		recon:   recon,
		matcher: matcher,
	}
	var observed *mat.Matrix
	if st.Observed != nil {
		observed = st.Observed.Clone()
	}
	sys.install(st.X.Clone(), observed,
		append([]float64(nil), st.Vacant...),
		append([]int(nil), st.RefCells...))
	return sys, nil
}

// MinRSS and MaxRSS bound an RSS value in dBm that the system accepts,
// from a live report or from a snapshot: the int32 milli-dBm range the
// UDP wire format saturates to. Within it every fingerprint distance
// stays finite.
const (
	MinRSS = math.MinInt32 / 1000.0
	MaxRSS = math.MaxInt32 / 1000.0
)

// inRSSRange reports whether every value lies in [MinRSS, MaxRSS]; NaN
// and ±Inf do not.
func inRSSRange(vs []float64) bool {
	for _, v := range vs {
		if !(v >= MinRSS && v <= MaxRSS) {
			return false
		}
	}
	return true
}

// errRSSRange is the CodeBadRequest error for caller-supplied RSS values
// that fail inRSSRange; what names the input.
func errRSSRange(what string) error {
	return taflocerr.Errorf(taflocerr.CodeBadRequest,
		"core: %s has entries that are non-finite or outside [%v, %v] dBm", what, MinRSS, MaxRSS)
}
