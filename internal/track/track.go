// Package track turns per-measurement location estimates into smooth
// trajectories: a constant-velocity Kalman filter over the 2-D position
// stream produced by a localization matcher, with innovation gating to
// reject the occasional gross mismatch.
//
// The paper's motivating applications (elderly care, intruder tracking)
// consume trajectories, not isolated fixes; this package is the layer
// between System.Locate and those applications.
package track

import (
	"fmt"
	"math"
	"time"

	"tafloc/internal/geom"
)

// Options configures the filter.
type Options struct {
	// ProcessStd is the acceleration-noise standard deviation in m/s²
	// (how agile the target is; walking humans ~0.5-1).
	ProcessStd float64
	// MeasurementStd is the localization error standard deviation in
	// metres (use the matcher's typical error, ~1 m after an update).
	MeasurementStd float64
	// GateSigma rejects fixes whose innovation exceeds this many standard
	// deviations (0 disables gating).
	GateSigma float64
	// MaxCoast is the number of consecutive gated/missing fixes the
	// filter will coast through before declaring the track lost.
	MaxCoast int
}

// DefaultOptions returns a configuration suited to walking targets
// localized about once per second.
func DefaultOptions() Options {
	return Options{
		ProcessStd:     0.4,
		MeasurementStd: 1.0,
		GateSigma:      3.5,
		MaxCoast:       5,
	}
}

// Validate reports the first invalid option, or nil. NaN and ±Inf are
// invalid everywhere: NaN passes every comparison below unnoticed.
func (o Options) Validate() error {
	for _, v := range [...]float64{o.ProcessStd, o.MeasurementStd, o.GateSigma} {
		if !finite(v) {
			return fmt.Errorf("track: options must be finite, got %+v", o)
		}
	}
	switch {
	case o.ProcessStd <= 0:
		return fmt.Errorf("track: ProcessStd must be positive, got %g", o.ProcessStd)
	case o.MeasurementStd <= 0:
		return fmt.Errorf("track: MeasurementStd must be positive, got %g", o.MeasurementStd)
	case o.GateSigma < 0:
		return fmt.Errorf("track: GateSigma must be non-negative, got %g", o.GateSigma)
	case o.MaxCoast < 0:
		return fmt.Errorf("track: MaxCoast must be non-negative, got %d", o.MaxCoast)
	}
	return nil
}

// State is the filter's kinematic estimate.
type State struct {
	Position geom.Point
	Velocity geom.Point // metres per second
	// PosStd is the 1-sigma position uncertainty (metres, isotropic
	// approximation).
	PosStd float64
}

// Filter is a constant-velocity Kalman filter over 2-D position fixes.
// The x and y axes are filtered independently (the CV model decouples),
// each with state [position, velocity].
//
// A Filter is not safe for concurrent use.
type Filter struct {
	opts Options

	initialized bool
	coasts      int

	// Per-axis state and covariance [p, v], [[Ppp, Ppv], [Pvp, Pvv]].
	x, y   [2]float64
	px, py [2][2]float64
}

// NewFilter builds a filter.
func NewFilter(opts Options) (*Filter, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Filter{opts: opts}, nil
}

// Reset clears the track; the next Observe initializes it.
func (f *Filter) Reset() {
	f.initialized = false
	f.coasts = 0
}

// Initialized reports whether the filter holds a live track.
func (f *Filter) Initialized() bool { return f.initialized }

// Observe feeds one position fix taken dt seconds after the previous one
// and returns the filtered state. accepted=false means the fix failed the
// innovation gate and the filter coasted on its motion model instead.
// After MaxCoast consecutive rejections the track resets and the next fix
// re-initializes it.
func (f *Filter) Observe(fix geom.Point, dt float64) (st State, accepted bool, err error) {
	if dt <= 0 {
		return State{}, false, fmt.Errorf("track: dt must be positive, got %g", dt)
	}
	if !f.initialized {
		f.initialize(fix)
		return f.state(), true, nil
	}
	f.predict(dt)

	// Innovation gate on the predicted position.
	r := f.opts.MeasurementStd * f.opts.MeasurementStd
	sx := f.px[0][0] + r
	sy := f.py[0][0] + r
	innX := fix.X - f.x[0]
	innY := fix.Y - f.y[0]
	if g := f.opts.GateSigma; g > 0 {
		d2 := innX*innX/sx + innY*innY/sy
		if d2 > g*g {
			f.coasts++
			if f.coasts > f.opts.MaxCoast {
				f.initialize(fix)
				return f.state(), true, nil
			}
			return f.state(), false, nil
		}
	}
	f.coasts = 0
	updateAxis(&f.x, &f.px, fix.X, r)
	updateAxis(&f.y, &f.py, fix.Y, r)
	return f.state(), true, nil
}

// Predict advances the motion model dt seconds without a measurement and
// returns the predicted state (e.g. between fixes, or during occlusion).
func (f *Filter) Predict(dt float64) (State, error) {
	if dt <= 0 {
		return State{}, fmt.Errorf("track: dt must be positive, got %g", dt)
	}
	if !f.initialized {
		return State{}, fmt.Errorf("track: filter not initialized")
	}
	f.predict(dt)
	return f.state(), nil
}

func (f *Filter) initialize(fix geom.Point) {
	f.initialized = true
	f.coasts = 0
	f.x = [2]float64{fix.X, 0}
	f.y = [2]float64{fix.Y, 0}
	r := f.opts.MeasurementStd * f.opts.MeasurementStd
	init := [2][2]float64{{r, 0}, {0, 4}} // generous velocity prior
	f.px = init
	f.py = init
}

func (f *Filter) predict(dt float64) {
	predictAxis(&f.x, &f.px, dt, f.opts.ProcessStd)
	predictAxis(&f.y, &f.py, dt, f.opts.ProcessStd)
}

// predictAxis applies x' = F x, P' = F P Fᵀ + Q with F = [[1, dt], [0, 1]]
// and white-acceleration process noise Q.
func predictAxis(x *[2]float64, p *[2][2]float64, dt, q float64) {
	x[0] += dt * x[1]
	p00 := p[0][0] + dt*(p[1][0]+p[0][1]) + dt*dt*p[1][1]
	p01 := p[0][1] + dt*p[1][1]
	p10 := p[1][0] + dt*p[1][1]
	p11 := p[1][1]
	// Discretized white-acceleration noise.
	q2 := q * q
	p00 += q2 * dt * dt * dt * dt / 4
	p01 += q2 * dt * dt * dt / 2
	p10 += q2 * dt * dt * dt / 2
	p11 += q2 * dt * dt
	p[0][0], p[0][1], p[1][0], p[1][1] = p00, p01, p10, p11
}

// updateAxis applies the scalar-measurement Kalman update with H = [1 0].
func updateAxis(x *[2]float64, p *[2][2]float64, z, r float64) {
	s := p[0][0] + r
	k0 := p[0][0] / s
	k1 := p[1][0] / s
	inn := z - x[0]
	x[0] += k0 * inn
	x[1] += k1 * inn
	p00 := (1 - k0) * p[0][0]
	p01 := (1 - k0) * p[0][1]
	p10 := p[1][0] - k1*p[0][0]
	p11 := p[1][1] - k1*p[0][1]
	p[0][0], p[0][1], p[1][0], p[1][1] = p00, p01, p10, p11
}

func (f *Filter) state() State {
	return State{
		Position: geom.Point{X: f.x[0], Y: f.y[0]},
		Velocity: geom.Point{X: f.x[1], Y: f.y[1]},
		PosStd:   math.Sqrt(math.Max(0, (f.px[0][0]+f.py[0][0])/2)),
	}
}

// FilterState is the complete serializable state of a Filter, as
// exported by Filter.Export and consumed by NewFilterFromState — the
// unit the persistence layer embeds in zone snapshots so a warm-started
// zone resumes its track instead of re-initializing it.
type FilterState struct {
	Opts        Options
	Initialized bool
	Coasts      int
	X, Y        [2]float64
	PX, PY      [2][2]float64
}

// Export deep-copies the filter's state.
func (f *Filter) Export() FilterState {
	return FilterState{
		Opts:        f.opts,
		Initialized: f.initialized,
		Coasts:      f.coasts,
		X:           f.x,
		Y:           f.y,
		PX:          f.px,
		PY:          f.py,
	}
}

// NewFilterFromState rebuilds a filter from an exported state. The
// options are re-validated and the state must be finite, so a state
// decoded from a damaged snapshot fails here instead of producing a
// filter that divides by zero or publishes NaN positions.
func NewFilterFromState(st FilterState) (*Filter, error) {
	if err := st.Opts.Validate(); err != nil {
		return nil, err
	}
	if st.Coasts < 0 {
		return nil, fmt.Errorf("track: negative coast count %d", st.Coasts)
	}
	for _, v := range [...]float64{
		st.X[0], st.X[1], st.Y[0], st.Y[1],
		st.PX[0][0], st.PX[0][1], st.PX[1][0], st.PX[1][1],
		st.PY[0][0], st.PY[0][1], st.PY[1][0], st.PY[1][1],
	} {
		if !finite(v) {
			return nil, fmt.Errorf("track: non-finite filter state %v", v)
		}
	}
	return &Filter{
		opts:        st.Opts,
		initialized: st.Initialized,
		coasts:      st.Coasts,
		x:           st.X,
		y:           st.Y,
		px:          st.PX,
		py:          st.PY,
	}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MinDT is the floor applied to the inter-fix interval when a Tracker
// folds timestamped fixes: two estimates published in the same
// nanosecond advance the motion model by this much instead of failing
// the filter's dt > 0 precondition. The value is part of the trajectory
// contract — replaying the same (fix, time) sequence through a fresh
// Filter with this rule reproduces the served track bit for bit.
const MinDT = 1e-9

// Tracker folds a stream of timestamped position fixes into a smoothed
// trajectory: it owns a Filter plus the previous fix time, deriving
// each observation's dt from wall-clock timestamps. The first fix
// initializes the track (the filter ignores dt there); subsequent fixes
// use dt = at - last, floored at MinDT.
//
// A Tracker is not safe for concurrent use.
type Tracker struct {
	f       *Filter
	hasFix  bool
	lastFix time.Time
}

// NewTracker builds a tracker over a fresh filter.
func NewTracker(opts Options) (*Tracker, error) {
	f, err := NewFilter(opts)
	if err != nil {
		return nil, err
	}
	return &Tracker{f: f}, nil
}

// Observe feeds one fix taken at the given wall-clock time and returns
// the filtered state; accepted is false when the fix failed the
// innovation gate and the filter coasted instead.
func (t *Tracker) Observe(fix geom.Point, at time.Time) (State, bool) {
	if !t.hasFix {
		t.hasFix = true
		t.lastFix = at
		// dt is irrelevant on the initializing fix; 1 satisfies the
		// filter's precondition.
		st, acc, _ := t.f.Observe(fix, 1)
		return st, acc
	}
	dt := at.Sub(t.lastFix).Seconds()
	if dt < MinDT {
		dt = MinDT
	}
	t.lastFix = at
	st, acc, _ := t.f.Observe(fix, dt)
	return st, acc
}

// TrackerState is the serializable state of a Tracker.
type TrackerState struct {
	Filter  FilterState
	HasFix  bool
	LastFix time.Time
}

// Export deep-copies the tracker's state.
func (t *Tracker) Export() TrackerState {
	return TrackerState{Filter: t.f.Export(), HasFix: t.hasFix, LastFix: t.lastFix}
}

// NewTrackerFromState rebuilds a tracker from an exported state.
func NewTrackerFromState(st TrackerState) (*Tracker, error) {
	f, err := NewFilterFromState(st.Filter)
	if err != nil {
		return nil, err
	}
	return &Tracker{f: f, hasFix: st.HasFix, lastFix: st.LastFix}, nil
}
