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
// the file (taflocerr.CodeSnapshotVersion) instead of guessing.
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
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
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
	// One buffer holds the header, the payload and the CRC. It is sized
	// once; the length field is written from the payload actually encoded.
	size := payloadSize(s, version)
	e := encoder{buf: make([]byte, headerSize, headerSize+size+4)}
	copy(e.buf, magic[:])
	binary.LittleEndian.PutUint32(e.buf[8:12], version)
	e.str(s.Zone)
	e.i64(s.SavedAt.UnixNano())
	e.i64(int64(s.Config.Window))
	e.f64(s.Config.DetectThresholdDB)
	e.str(s.Config.Detector)

	st := s.State
	e.u32(uint32(len(st.Links)))
	for _, l := range st.Links {
		e.f64(l.A.X)
		e.f64(l.A.Y)
		e.f64(l.B.X)
		e.f64(l.B.Y)
	}
	e.f64(st.GridWidth)
	e.f64(st.GridHeight)
	e.f64(st.GridCellSize)
	e.f64(st.EllipseExcess)

	e.i64(int64(st.LoLi.Rank))
	e.f64(st.LoLi.Lambda)
	e.f64(st.LoLi.Alpha)
	e.f64(st.LoLi.Beta)
	e.f64(st.LoLi.Gamma)
	e.f64(st.LoLi.Mu)
	e.i64(int64(st.LoLi.MaxIter))
	e.f64(st.LoLi.Tol)
	e.f64(st.LoLi.CGTol)
	e.i64(int64(st.LoLi.CGMaxIter))

	e.f64(st.Refs.EnergyFrac)
	e.i64(int64(st.Refs.Min))
	e.i64(int64(st.Refs.Max))
	e.i64(int64(st.Refs.Count))

	e.str(st.MatcherName)
	e.f64(st.RecSigmaDB)
	e.f64(st.MaskThresholdDB)

	e.matrix(st.Mask)
	e.matrix(st.X)
	e.matrix(st.Observed)
	e.f64s(st.Vacant)
	e.ints(st.RefCells)

	if version >= 2 {
		e.i64(int64(s.Config.History))
		e.trackOptions(s.Config.Track)
		if s.Track == nil {
			e.buf = append(e.buf, 0)
		} else {
			e.buf = append(e.buf, 1)
			e.trackerState(s.Track)
		}
	}

	payload := e.buf[headerSize:]
	binary.LittleEndian.PutUint64(e.buf[12:headerSize], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(payload, castagnoli)), nil
}

// Encoded sizes of the fixed-width parts of a payload.
const (
	trackOptionsSize = 4 * 8
	// options, two flags, two int64s and twelve float64s
	trackerStateSize = trackOptionsSize + 2 + 2*8 + 12*8
)

// payloadSize is the exact length EncodeVersion's payload will have, so
// its buffer is allocated once.
func payloadSize(s *Snapshot, version uint32) int {
	st := s.State
	n := 4 + len(s.Zone) + 3*8 + 4 + len(s.Config.Detector) // zone, SavedAt, window, threshold, detector
	n += 4 + 4*8*len(st.Links) + 4*8                        // links, grid and ellipse excess
	n += 10*8 + 4*8                                         // LoLi and reference options
	n += 4 + len(st.MatcherName) + 2*8                      // matcher, RecSigmaDB, MaskThresholdDB
	n += matrixSize(st.Mask) + matrixSize(st.X) + matrixSize(st.Observed)
	n += 4 + 8*len(st.Vacant) + 4 + 8*len(st.RefCells)
	if version >= 2 {
		n += 8 + trackOptionsSize + 1 // history, track options, tracker presence flag
		if s.Track != nil {
			n += trackerStateSize
		}
	}
	return n
}

// matrixSize is the encoded length of a (possibly nil) matrix.
func matrixSize(m *mat.Matrix) int {
	if m == nil {
		return 1
	}
	return 1 + 2*4 + 8*m.Rows()*m.Cols()
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

	d := decoder{buf: payload}
	s := &Snapshot{State: &core.SystemState{}}
	s.Zone = d.str()
	s.SavedAt = time.Unix(0, d.i64()).UTC()
	s.Config.Window = d.intv()
	s.Config.DetectThresholdDB = d.f64()
	s.Config.Detector = d.str()

	st := s.State
	nl := d.count()
	// Pre-check the byte bound (4 coordinates per link) before the
	// allocation, like every other slice decoder here — a tiny crafted
	// file must not provoke a huge make.
	if d.err == nil && nl*32 > len(d.buf)-d.pos {
		d.fail("truncated link list of %d", nl)
	}
	if d.err == nil {
		st.Links = make([]geom.Segment, nl)
		for i := range st.Links {
			st.Links[i].A.X = d.f64()
			st.Links[i].A.Y = d.f64()
			st.Links[i].B.X = d.f64()
			st.Links[i].B.Y = d.f64()
		}
	}
	st.GridWidth = d.f64()
	st.GridHeight = d.f64()
	st.GridCellSize = d.f64()
	st.EllipseExcess = d.f64()

	st.LoLi.Rank = d.intv()
	st.LoLi.Lambda = d.f64()
	st.LoLi.Alpha = d.f64()
	st.LoLi.Beta = d.f64()
	st.LoLi.Gamma = d.f64()
	st.LoLi.Mu = d.f64()
	st.LoLi.MaxIter = d.intv()
	st.LoLi.Tol = d.f64()
	st.LoLi.CGTol = d.f64()
	st.LoLi.CGMaxIter = d.intv()

	st.Refs.EnergyFrac = d.f64()
	st.Refs.Min = d.intv()
	st.Refs.Max = d.intv()
	st.Refs.Count = d.intv()

	st.MatcherName = d.str()
	st.RecSigmaDB = d.f64()
	st.MaskThresholdDB = d.f64()

	st.Mask = d.matrix()
	st.X = d.matrix()
	st.Observed = d.matrix()
	st.Vacant = d.f64s()
	st.RefCells = d.ints()

	if version >= 2 {
		s.Config.History = d.intv()
		s.Config.Track = d.trackOptions()
		if b := d.take(1); len(b) == 1 {
			switch b[0] {
			case 0:
			case 1:
				ts := d.trackerState()
				s.Track = &ts
			default:
				d.fail("invalid tracker presence flag %d", b[0])
			}
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.buf) {
		return nil, taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt,
			"snap: %d trailing payload bytes", len(d.buf)-d.pos)
	}
	return s, nil
}

// encoder appends little-endian primitives to a growing buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

// trackOptions writes the trajectory filter options flat.
func (e *encoder) trackOptions(o track.Options) {
	e.f64(o.ProcessStd)
	e.f64(o.MeasurementStd)
	e.f64(o.GateSigma)
	e.i64(int64(o.MaxCoast))
}

// trackerState writes the live trajectory-filter state flat (the
// presence flag is the caller's).
func (e *encoder) trackerState(ts *track.TrackerState) {
	e.trackOptions(ts.Filter.Opts)
	e.bool(ts.Filter.Initialized)
	e.i64(int64(ts.Filter.Coasts))
	e.f64(ts.Filter.X[0])
	e.f64(ts.Filter.X[1])
	e.f64(ts.Filter.Y[0])
	e.f64(ts.Filter.Y[1])
	for _, row := range [][2]float64{ts.Filter.PX[0], ts.Filter.PX[1], ts.Filter.PY[0], ts.Filter.PY[1]} {
		e.f64(row[0])
		e.f64(row[1])
	}
	e.bool(ts.HasFix)
	e.i64(ts.LastFix.UnixNano())
}

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// matrix writes a presence flag, dimensions, and the row-major data; a
// nil matrix writes just the zero flag.
func (e *encoder) matrix(m *mat.Matrix) {
	if m == nil {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	e.u32(uint32(m.Rows()))
	e.u32(uint32(m.Cols()))
	for _, x := range m.Raw() {
		e.f64(x)
	}
}

// decoder reads the payload back with strict bounds checking. The first
// failure latches into err; subsequent reads return zero values, so call
// sites stay linear and the caller checks err once.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = taflocerr.Errorf(taflocerr.CodeSnapshotCorrupt, "snap: "+format, args...)
	}
}

// take reserves n payload bytes, or fails on truncation.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.pos {
		d.fail("truncated payload at offset %d (need %d of %d bytes)", d.pos, n, len(d.buf)-d.pos)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// intv decodes an int64 that must fit the host int.
func (d *decoder) intv() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("integer %d overflows host int", v)
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// count decodes a slice length and sanity-bounds it before any
// allocation happens.
func (d *decoder) count() int {
	n := d.u32()
	if n > maxDim {
		d.fail("implausible element count %d", n)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) f64s() []float64 {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if n*8 > len(d.buf)-d.pos {
		d.fail("truncated float slice of %d", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.count()
	if d.err != nil {
		return nil
	}
	if n*8 > len(d.buf)-d.pos {
		d.fail("truncated int slice of %d", n)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.intv()
	}
	return out
}

func (d *decoder) bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte %d", b[0])
		return false
	}
}

func (d *decoder) trackOptions() track.Options {
	return track.Options{
		ProcessStd:     d.f64(),
		MeasurementStd: d.f64(),
		GateSigma:      d.f64(),
		MaxCoast:       d.intv(),
	}
}

func (d *decoder) trackerState() track.TrackerState {
	var ts track.TrackerState
	ts.Filter.Opts = d.trackOptions()
	ts.Filter.Initialized = d.bool()
	ts.Filter.Coasts = d.intv()
	ts.Filter.X = [2]float64{d.f64(), d.f64()}
	ts.Filter.Y = [2]float64{d.f64(), d.f64()}
	ts.Filter.PX = [2][2]float64{{d.f64(), d.f64()}, {d.f64(), d.f64()}}
	ts.Filter.PY = [2][2]float64{{d.f64(), d.f64()}, {d.f64(), d.f64()}}
	ts.HasFix = d.bool()
	ts.LastFix = time.Unix(0, d.i64()).UTC()
	return ts
}

func (d *decoder) matrix() *mat.Matrix {
	b := d.take(1)
	if b == nil {
		return nil
	}
	if b[0] == 0 {
		return nil
	}
	if b[0] != 1 {
		d.fail("invalid matrix presence flag %d", b[0])
		return nil
	}
	r, c := d.count(), d.count()
	if d.err != nil {
		return nil
	}
	if r*c > maxDim || r*c*8 > len(d.buf)-d.pos {
		d.fail("truncated %dx%d matrix", r, c)
		return nil
	}
	m := mat.New(r, c)
	data := m.Raw()
	for i := range data {
		data[i] = d.f64()
	}
	if d.err != nil {
		return nil
	}
	return m
}
