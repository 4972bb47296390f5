// Package snap is the persistence codec for calibrated TafLoc
// deployments: it serializes a zone's complete calibrated state (the
// core.SystemState — geometry, mask, reconstructed radio map, vacant
// baseline, reference cells, matcher name — plus the zone's effective
// serve configuration) into a versioned, CRC-checked binary snapshot,
// and decodes it back with strict validation.
//
// # Format
//
//	[0:8)   magic "TAFSNAP\x00"
//	[8:12)  format version, uint32 little-endian
//	[12:20) payload length, uint64 little-endian
//	[20:+n) payload (see below)
//	[+n:+4) CRC-32C (Castagnoli) of the payload, uint32 little-endian
//
// The payload is a flat little-endian encoding: strings and slices are
// length-prefixed with uint32 counts, floats are IEEE-754 bits, ints are
// int64. Nothing in the format is self-describing — the version number
// owns the layout, and a decoder that does not know the version refuses
// the file (taflocerr.CodeSnapshotVersion) instead of guessing. The
// layout is written down once, as a walk over a Snapshot's fields in
// format order; sizing, encoding and decoding all run that walk.
//
// Version 2 (current) appends the zone's trajectory-serving state to
// the version-1 payload: the history depth, the trajectory filter
// options, and the live Kalman filter state, so a warm-started zone
// resumes its track. Decoders read both versions — a version-1 file
// yields a Snapshot with no Track state and zero-valued history/track
// config (the restoring service's defaults apply). Encode writes the
// current version; EncodeVersion writes an explicit one, which is how a
// deployment rolls snapshots back to a build that only reads v1.
//
// Decoding fails closed: a wrong magic or version yields
// taflocerr.CodeSnapshotVersion; truncation, trailing garbage, CRC
// mismatch, or any structurally impossible field (out-of-range lengths,
// dimension overflow) yields taflocerr.CodeSnapshotCorrupt. No input,
// however damaged, may panic the decoder — that invariant is pinned by
// the package fuzz test.
//
// Snapshots are persisted through a keyed byte store (WriteStore and
// ReadStore below; internal/store.Dir writes each one atomically).
package snap

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/mat"
	"tafloc/internal/track"
	"tafloc/taflocerr"
)

// Version is the current snapshot format version. Decoders accept
// exactly the versions they implement; there is no forward compatibility.
const Version = 2

// VersionPrev is the oldest version this build still decodes (and can
// emit via EncodeVersion for rollbacks).
const VersionPrev = 1

// magic identifies a TafLoc snapshot file.
var magic = [8]byte{'T', 'A', 'F', 'S', 'N', 'A', 'P', 0}

// headerSize is magic + version + payload length.
const headerSize = 8 + 4 + 8

// maxDim bounds matrix dimensions and slice counts a decoder will
// accept; it exists purely so corrupt length fields fail fast instead of
// attempting absurd allocations.
const maxDim = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ZoneConfig is the per-zone serving configuration captured alongside
// the calibrated state, so a restored zone serves exactly as the
// original did regardless of the restoring service's own defaults.
type ZoneConfig struct {
	// Window is the per-link live-window length.
	Window int
	// DetectThresholdDB is the presence gate threshold; 0 means gating
	// is disabled (every batch localizes).
	DetectThresholdDB float64
	// Detector is the registry name of the presence detector.
	Detector string
	// History is the zone's history/trajectory ring depth: positive for
	// an explicit depth, -1 for explicitly disabled, 0 for "not recorded"
	// (version-1 snapshots), in which case the restoring service's
	// default applies.
	History int
	// Track holds the trajectory filter options; the zero value means
	// "not recorded" (version-1 snapshots) and selects the restoring
	// service's defaults.
	Track track.Options
}

// Snapshot is one calibrated deployment, ready to serialize.
type Snapshot struct {
	// Zone is the zone ID the deployment served under.
	Zone string
	// SavedAt is when the snapshot was captured.
	SavedAt time.Time
	// Config is the zone's effective serving configuration.
	Config ZoneConfig
	// State is the calibrated system state.
	State *core.SystemState
	// Track is the zone's live trajectory-filter state at capture time,
	// nil when the zone had tracking disabled (or the snapshot predates
	// version 2).
	Track *track.TrackerState
}

// Encode serializes s into the current version of the CRC-checked
// binary format.
func Encode(s *Snapshot) ([]byte, error) {
	return EncodeVersion(s, Version)
}

// EncodeVersion serializes s as an explicit format version — the
// current one, or VersionPrev to hand a snapshot to a build that only
// reads the previous layout (version 1 simply omits the trajectory
// state).
func EncodeVersion(s *Snapshot, version uint32) ([]byte, error) {
	if s == nil || s.State == nil {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest, "snap: nil snapshot")
	}
	if version < VersionPrev || version > Version {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"snap: cannot encode version %d (this build writes %d..%d)", version, VersionPrev, Version)
	}
	// One buffer holds the header, the payload and the CRC. A sizing walk
	// measures the payload first, so the buffer is allocated once; the
	// length field is written from the payload actually encoded.
	size := codec{mode: sizing}
	s.walk(&size, version)
	c := codec{mode: encoding, buf: make([]byte, headerSize, headerSize+size.n+4)}
	copy(c.buf, magic[:])
	binary.LittleEndian.PutUint32(c.buf[8:12], version)
	s.walk(&c, version)
	payload := c.buf[headerSize:]
	binary.LittleEndian.PutUint64(c.buf[12:headerSize], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(payload, castagnoli)), nil
}

// Decode parses and validates a snapshot. Every failure carries a
// taflocerr code: CodeSnapshotVersion for wrong magic or unknown format
// version, CodeSnapshotCorrupt for truncation, trailing bytes, CRC
// mismatch, or structurally invalid content.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerSize+4 {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"snap: truncated snapshot: %d bytes", len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotVersion, "snap: not a TafLoc snapshot")
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < VersionPrev || version > Version {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotVersion,
			"snap: unsupported snapshot version %d (this build reads %d..%d)", version, VersionPrev, Version)
	}
	n := binary.LittleEndian.Uint64(data[12:headerSize])
	if n != uint64(len(data)-headerSize-4) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"snap: payload length %d does not match file size", n)
	}
	payload := data[headerSize : headerSize+int(n)]
	want := binary.LittleEndian.Uint32(data[headerSize+int(n):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"snap: CRC mismatch: %08x != %08x", got, want)
	}

	c := codec{mode: decoding, buf: payload}
	s := &Snapshot{State: &core.SystemState{}}
	s.walk(&c, version)
	if c.err != nil {
		return nil, c.err
	}
	if c.n != len(c.buf) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"snap: %d trailing payload bytes", len(c.buf)-c.n)
	}
	return s, nil
}

// walk visits every payload field of s in format order: it is the one
// statement of the layout, which c runs to size, encode or decode the
// payload. Sizing and encoding only read s; decoding fills it. A
// version-1 payload ends after the reference cells.
func (s *Snapshot) walk(c *codec, version uint32) {
	c.str(&s.Zone)
	c.time(&s.SavedAt)
	c.int(&s.Config.Window)
	c.f64(&s.Config.DetectThresholdDB)
	c.str(&s.Config.Detector)

	st := s.State
	walkLen(c, &st.Links, 4*8)
	for i := range st.Links {
		l := &st.Links[i]
		c.f64(&l.A.X)
		c.f64(&l.A.Y)
		c.f64(&l.B.X)
		c.f64(&l.B.Y)
	}
	c.f64(&st.GridWidth)
	c.f64(&st.GridHeight)
	c.f64(&st.GridCellSize)
	c.f64(&st.EllipseExcess)

	c.int(&st.LoLi.Rank)
	c.f64(&st.LoLi.Lambda)
	c.f64(&st.LoLi.Alpha)
	c.f64(&st.LoLi.Beta)
	c.f64(&st.LoLi.Gamma)
	c.f64(&st.LoLi.Mu)
	c.int(&st.LoLi.MaxIter)
	c.f64(&st.LoLi.Tol)
	c.f64(&st.LoLi.CGTol)
	c.int(&st.LoLi.CGMaxIter)

	c.f64(&st.Refs.EnergyFrac)
	c.int(&st.Refs.Min)
	c.int(&st.Refs.Max)
	c.int(&st.Refs.Count)

	c.str(&st.MatcherName)
	c.f64(&st.RecSigmaDB)
	c.f64(&st.MaskThresholdDB)

	c.matrix(&st.Mask)
	c.matrix(&st.X)
	c.matrix(&st.Observed)
	walkLen(c, &st.Vacant, 8)
	c.floats(st.Vacant)
	walkLen(c, &st.RefCells, 8)
	for i := range st.RefCells {
		c.int(&st.RefCells[i])
	}
	if version < 2 {
		return
	}

	c.int(&s.Config.History)
	trackOptions := func(o *track.Options) {
		c.f64(&o.ProcessStd)
		c.f64(&o.MeasurementStd)
		c.f64(&o.GateSigma)
		c.int(&o.MaxCoast)
	}
	trackOptions(&s.Config.Track)
	hasTrack := s.Track != nil
	c.flag(&hasTrack)
	if !hasTrack {
		return
	}
	if s.Track == nil {
		s.Track = new(track.TrackerState)
	}
	f := &s.Track.Filter
	trackOptions(&f.Opts)
	c.flag(&f.Initialized)
	c.int(&f.Coasts)
	c.floats(f.X[:])
	c.floats(f.Y[:])
	c.floats(f.PX[0][:])
	c.floats(f.PX[1][:])
	c.floats(f.PY[0][:])
	c.floats(f.PY[1][:])
	c.flag(&s.Track.HasFix)
	c.time(&s.Track.LastFix)
}

// Modes a codec runs Snapshot.walk in.
const (
	sizing = iota
	encoding
	decoding
)

// codec runs Snapshot.walk in one mode. Each field takes the next
// window of the payload: sizing counts the windows' bytes in n,
// encoding appends them to buf and fills them from the field, and
// decoding reads buf from offset n into the field with strict bounds.
// The first decoding failure latches into err; later fields read as
// absent, so the walk stays linear and the caller checks err once.
type codec struct {
	mode int
	buf  []byte
	n    int
	err  error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "snap: "+format, args...)
	}
}

// next reserves the payload's next k bytes. Sizing counts them and
// returns nil; encoding returns them to fill; decoding returns them to
// read, or nil once the payload is too short.
func (c *codec) next(k int) []byte {
	switch c.mode {
	case sizing:
		c.n += k
		return nil
	case encoding:
		c.buf = slices.Grow(c.buf, k)[:len(c.buf)+k]
		return c.buf[len(c.buf)-k:]
	}
	if c.err != nil {
		return nil
	}
	if k < 0 || k > len(c.buf)-c.n {
		c.fail("truncated payload at offset %d (need %d of %d bytes)", c.n, k, len(c.buf)-c.n)
		return nil
	}
	c.n += k
	return c.buf[c.n-k : c.n]
}

// u64 walks one 8-byte word: it writes v, or returns the word read.
func (c *codec) u64(v uint64) uint64 {
	b := c.next(8)
	if b == nil {
		return v
	}
	if c.mode == decoding {
		return binary.LittleEndian.Uint64(b)
	}
	binary.LittleEndian.PutUint64(b, v)
	return v
}

func (c *codec) f64(v *float64) {
	if x := math.Float64frombits(c.u64(math.Float64bits(*v))); c.mode == decoding {
		*v = x
	}
}

// int walks an int as an int64; decoding refuses a value that overflows
// the host int.
func (c *codec) int(v *int) {
	x := int64(c.u64(uint64(*v)))
	if c.mode != decoding {
		return
	}
	if int64(int(x)) != x {
		c.fail("integer %d overflows host int", x)
		return
	}
	*v = int(x)
}

// time walks an instant as int64 Unix nanoseconds; it decodes in UTC.
func (c *codec) time(v *time.Time) {
	if ns := int64(c.u64(uint64(v.UnixNano()))); c.mode == decoding {
		*v = time.Unix(0, ns).UTC()
	}
}

// flag walks a bool as one byte; decoding refuses any byte but 0 and 1.
func (c *codec) flag(v *bool) {
	b := c.next(1)
	switch {
	case b == nil:
	case c.mode == encoding:
		b[0] = 0
		if *v {
			b[0] = 1
		}
	case b[0] > 1:
		c.fail("invalid flag byte %d", b[0])
	default:
		*v = b[0] == 1
	}
}

// count walks a uint32 length prefix. Decoding refuses a count above
// maxDim, or one whose elements, width bytes each, overrun the payload
// left, so a corrupt count fails before anything is allocated for it.
func (c *codec) count(n, width int) int {
	b := c.next(4)
	if c.mode != decoding {
		if b != nil {
			binary.LittleEndian.PutUint32(b, uint32(n))
		}
		return n
	}
	if b == nil {
		return 0
	}
	v := binary.LittleEndian.Uint32(b)
	if v > maxDim {
		c.fail("implausible element count %d", v)
		return 0
	}
	if int(v)*width > len(c.buf)-c.n {
		c.fail("truncated list of %d elements", v)
		return 0
	}
	return int(v)
}

// walkLen walks the length prefix of *v, whose elements encode to width
// bytes each; decoding allocates *v once the count has passed count's
// bounds.
func walkLen[T any](c *codec, v *[]T, width int) {
	if n := c.count(len(*v), width); c.mode == decoding && c.err == nil {
		*v = make([]T, n)
	}
}

func (c *codec) str(v *string) {
	b := c.next(c.count(len(*v), 1))
	switch {
	case b == nil:
	case c.mode == decoding:
		*v = string(b)
	default:
		copy(b, *v)
	}
}

// floats walks v as consecutive float64 words in one window: the bulk
// path for float slices and matrix data.
func (c *codec) floats(v []float64) {
	b := c.next(8 * len(v))
	switch {
	case b == nil:
	case c.mode == decoding:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	default:
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
	}
}

// matrix walks a presence flag, then for a non-nil matrix its
// dimensions and row-major data. Decoding allocates the matrix once its
// size has passed the bounds.
func (c *codec) matrix(m **mat.Matrix) {
	present := *m != nil
	c.flag(&present)
	if !present {
		return
	}
	var r, k int
	if *m != nil {
		r, k = (*m).Dims()
	}
	r, k = c.count(r, 0), c.count(k, 0)
	if c.mode == decoding {
		if c.err != nil {
			return
		}
		if r*k > maxDim || r*k*8 > len(c.buf)-c.n {
			c.fail("truncated %dx%d matrix", r, k)
			return
		}
		*m = mat.New(r, k)
	}
	c.floats((*m).Raw())
}
