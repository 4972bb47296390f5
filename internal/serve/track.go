package serve

import (
	"tafloc/internal/api"
	"tafloc/taflocerr"
)

// Trajectory serving: each zone keeps a bounded ring of its published
// estimates (raw history) and a parallel ring of smoothed track points
// produced by folding every present fix through the zone's
// constant-velocity Kalman filter (internal/track). The rings are
// capped at the zone's configured history depth, so the memory cost per
// zone is fixed and the oldest samples fall off. Both are read over
// GET /v2/zones/{id}/history and /track.

// TrackPoint is one sample of a zone's smoothed trajectory (shared
// wire type; see internal/api).
type TrackPoint = api.TrackPoint

// ring is a fixed-capacity FIFO over the last cap pushed values: a
// zone's history and track, and each link's fold windows.
type ring[T any] struct {
	buf []T
	idx int // next write position
	n   int // values held (<= len(buf))
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) push(v T) {
	r.buf[r.idx] = v
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// last returns up to n values, oldest first (all buffered when n <= 0).
func (r *ring[T]) last(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	start := r.idx - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// windowMean averages a fold window's samples in buffer order (the
// summation order every live vector has always used); w holds at least
// one sample.
func windowMean(w *ring[float64]) float64 {
	var sum float64
	for _, v := range w.buf[:w.n] {
		sum += v
	}
	return sum / float64(w.n)
}

// record appends a freshly published estimate to the history and, for
// present fixes, folds it through the trajectory filter. Called from
// the publish path with p.mu held, which also serializes it against
// the HTTP readers.
func (p *publication) record(e Estimate) {
	if p.hist == nil {
		return
	}
	p.hist.push(e)
	if !e.Present || e.Cell < 0 {
		return
	}
	st, accepted := p.tracker.Observe(e.Point, e.Time)
	p.trk.push(api.TrackPoint{
		Seq:      e.Seq,
		Time:     e.Time,
		Cell:     e.Cell,
		Raw:      e.Point,
		Point:    st.Position,
		Velocity: st.Velocity,
		PosStd:   st.PosStd,
		Accepted: accepted,
	})
}

// errHistoryDisabled reports the history/track routes on a zone whose
// history depth is zero (Config.History negative, or WithHistory(0)).
var errHistoryDisabled error = taflocerr.New(taflocerr.CodeUnsupported,
	"serve: history and tracking are disabled for this zone")

// Track returns up to n samples of a zone's smoothed trajectory, oldest
// first (all buffered samples when n <= 0). Each sample pairs the raw
// published fix with the trajectory filter's position, velocity, and
// uncertainty after folding it. A zone with history disabled fails with
// taflocerr.ErrUnsupported.
func (s *Service) Track(id string, n int) ([]api.TrackPoint, error) {
	z, ok := s.lookup(id)
	if !ok {
		return nil, ErrUnknownZone
	}
	p := z.pub
	if p.trk == nil {
		return nil, errHistoryDisabled
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trk.last(n), nil
}

// History returns up to n of a zone's most recently published
// estimates, oldest first (all buffered when n <= 0). Unlike Position,
// which holds only the latest value, History exposes how the estimate
// evolved — including absent samples the track skips. A zone with
// history disabled fails with taflocerr.ErrUnsupported.
func (s *Service) History(id string, n int) ([]Estimate, error) {
	z, ok := s.lookup(id)
	if !ok {
		return nil, ErrUnknownZone
	}
	p := z.pub
	if p.hist == nil {
		return nil, errHistoryDisabled
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hist.last(n), nil
}
