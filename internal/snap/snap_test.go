package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/internal/testbed"
	"tafloc/internal/track"
	"tafloc/taflocerr"
)

// testSnapshot builds a representative snapshot with every field
// populated (including the optional Observed matrix).
func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	grid, err := geom.NewGrid(3.0, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	links := geom.CrossedDeployment(3.0, 2.0, 5)
	layout, err := core.NewLayout(links, grid, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m, n := layout.M(), layout.N()
	survey := mat.New(m, n)
	vacant := make([]float64, m)
	for i := 0; i < m; i++ {
		vacant[i] = -40 - float64(i)
		for j := 0; j < n; j++ {
			survey.Set(i, j, -40-float64(i)-0.8*float64(j%7))
		}
	}
	sys, err := core.NewSystem(layout, survey, vacant, core.DefaultSystemOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.ExportState()
	st.Observed = mat.New(m, n) // exercise the optional-matrix path
	trk, err := track.NewTracker(track.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	trk.Observe(geom.Point{X: 1.2, Y: 0.8}, time.Unix(1_700_000_000, 0))
	trk.Observe(geom.Point{X: 1.4, Y: 0.9}, time.Unix(1_700_000_001, 0))
	ts := trk.Export()
	return &Snapshot{
		Zone:    "lobby/east wing",
		SavedAt: time.Unix(1_700_000_000, 123456789).UTC(),
		Config: ZoneConfig{
			Window:            6,
			DetectThresholdDB: 0.25,
			Detector:          "rms",
			History:           128,
			Track:             track.DefaultOptions(),
		},
		State: st,
		Track: &ts,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot(t)
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Zone != want.Zone || !got.SavedAt.Equal(want.SavedAt) || got.Config != want.Config {
		t.Errorf("header round trip: %+v != %+v", got, want)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Error("system state did not round-trip exactly")
	}
	if got.Track == nil {
		t.Fatal("tracker state lost in round trip")
	}
	if got.Track.Filter != want.Track.Filter || got.Track.HasFix != want.Track.HasFix ||
		!got.Track.LastFix.Equal(want.Track.LastFix) {
		t.Errorf("tracker state round trip: %+v != %+v", got.Track, want.Track)
	}

	// A nil Observed must round-trip to nil, not an empty matrix.
	want.State.Observed = nil
	data, err = Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Observed != nil {
		t.Error("nil Observed decoded non-nil")
	}
}

// TestDecodeTruncationFailsClosed chops the encoding at every length and
// requires a typed error — never a panic, never success.
func TestDecodeTruncationFailsClosed(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		sn, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully: %+v", n, sn)
		}
		if !errors.Is(err, taflocerr.ErrSnapshotCorrupt) && !errors.Is(err, taflocerr.ErrSnapshotVersion) {
			t.Fatalf("truncation to %d: error %v is not a snapshot error", n, err)
		}
	}
}

// TestDecodeBitFlipsFailClosed flips one bit at a sample of offsets; the
// CRC (or header validation) must catch every one.
func TestDecodeBitFlipsFailClosed(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 1 << (off % 8)
		if sn, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully: %+v", off, sn)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, 0xAA)); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestDecodeVersionAndMagic(t *testing.T) {
	data, err := Encode(testSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] = 'X'
	if _, err := Decode(wrongMagic); !errors.Is(err, taflocerr.ErrSnapshotVersion) {
		t.Errorf("wrong magic: %v", err)
	}
	future := append([]byte(nil), data...)
	future[8] = Version + 1
	if _, err := Decode(future); !errors.Is(err, taflocerr.ErrSnapshotVersion) {
		t.Errorf("future version: %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("empty input: %v", err)
	}
}

// TestDecodeVersionPrev pins backward compatibility: a snapshot
// written in the previous format version still decodes — calibrated
// state intact, trajectory fields at their "not recorded" zero values —
// and EncodeVersion refuses versions outside the supported range.
func TestDecodeVersionPrev(t *testing.T) {
	want := testSnapshot(t)
	data, err := EncodeVersion(want, VersionPrev)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(v2) {
		t.Errorf("v1 encoding (%d bytes) not smaller than v2 (%d)", len(data), len(v2))
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode v%d: %v", VersionPrev, err)
	}
	if got.Zone != want.Zone || !got.SavedAt.Equal(want.SavedAt) {
		t.Errorf("v1 header: %+v", got)
	}
	if got.Config.Window != want.Config.Window || got.Config.Detector != want.Config.Detector {
		t.Errorf("v1 config: %+v", got.Config)
	}
	if !reflect.DeepEqual(got.State, want.State) {
		t.Error("v1 system state did not round-trip exactly")
	}
	if got.Config.History != 0 || got.Config.Track != (track.Options{}) || got.Track != nil {
		t.Errorf("v1 decode invented trajectory state: %+v track=%+v", got.Config, got.Track)
	}

	if _, err := EncodeVersion(want, 0); err == nil {
		t.Error("EncodeVersion(0) succeeded")
	}
	if _, err := EncodeVersion(want, Version+1); err == nil {
		t.Error("EncodeVersion(future) succeeded")
	}
}

// FuzzDecode pins the decoder's no-panic invariant on arbitrary input,
// and on mutations of a valid snapshot (the corpus seed).
func FuzzDecode(f *testing.F) {
	data, err := Encode(testSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sn, err := Decode(b)
		if err == nil {
			// Whatever decodes must re-encode; the codec may not accept
			// states it cannot represent.
			if _, err := Encode(sn); err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
		}
	})
}

// FuzzRestore drives bytes through the snapshot door into the core:
// Decode, then core.RestoreSystem, then a Locate of the restored vacant
// baseline. No input may panic. Each must fail with a snapshot error at
// Decode or RestoreSystem, or locate to a finite point in a grid cell.
// The input's length field and CRC are rewritten to match its payload,
// so mutated fields reach the walk and the core instead of stopping at
// the CRC check, which FuzzDecode covers.
func FuzzRestore(f *testing.F) {
	for _, name := range []string{"golden_v2.snap", "golden_v2_bare.snap", "golden_v1.snap"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	data, err := Encode(testSnapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, b []byte) {
		if n := len(b) - headerSize - 4; n >= 0 {
			b = append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(b[12:headerSize], uint64(n))
			binary.LittleEndian.PutUint32(b[headerSize+n:], crc32.Checksum(b[headerSize:headerSize+n], castagnoli))
		}
		sn, err := Decode(b)
		if err != nil {
			if !errors.Is(err, taflocerr.ErrSnapshotCorrupt) && !errors.Is(err, taflocerr.ErrSnapshotVersion) {
				t.Fatalf("Decode error %v is not a snapshot error", err)
			}
			return
		}
		sys, err := core.RestoreSystem(sn.State)
		if err != nil {
			if !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
				t.Fatalf("RestoreSystem error %v is not a snapshot error", err)
			}
			return
		}
		loc, err := sys.Locate(sys.Vacant())
		if err != nil {
			t.Fatalf("Locate of the restored vacant baseline: %v", err)
		}
		if p := loc.Point; math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			t.Fatalf("Locate returned a non-finite point %+v", p)
		}
		if n := sys.Layout().N(); loc.Cell < 0 || loc.Cell >= n {
			t.Fatalf("Locate returned cell %d outside [0, %d)", loc.Cell, n)
		}
	})
}

// TestEncodeConcurrent encodes one Snapshot from two goroutines at once.
// The sizing and encoding walks only read it, so under -race nothing is
// reported, and both goroutines produce the same bytes.
func TestEncodeConcurrent(t *testing.T) {
	sn := testSnapshot(t)
	want, err := Encode(sn)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]byte
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data, err := Encode(sn)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = data
			}
		}(g)
	}
	wg.Wait()
	for g, data := range got {
		if !bytes.Equal(data, want) {
			t.Errorf("goroutine %d: concurrent encoding differs from a lone one", g)
		}
	}
}

// goldenSnapshot is a fixed snapshot built from literal values alone —
// no survey, mask learning or reference selection runs — so its
// encoding is the same on every platform. bare drops the optional
// Observed matrix and the tracker state.
func goldenSnapshot(bare bool) *Snapshot {
	const m, n = 3, 4
	mask, x, observed := mat.New(m, n), mat.New(m, n), mat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.Set(i, j, -40-float64(i)-0.25*float64(j))
			if (i+j)%2 == 0 {
				mask.Set(i, j, 1)
				observed.Set(i, j, 1)
			}
		}
	}
	s := &Snapshot{
		Zone:    "golden/zone",
		SavedAt: time.Unix(1_700_000_000, 123456789).UTC(),
		Config: ZoneConfig{
			Window:            6,
			DetectThresholdDB: 0.25,
			Detector:          "rms",
			History:           128,
			Track:             track.Options{ProcessStd: 0.75, MeasurementStd: 1.5, GateSigma: 4, MaxCoast: 3},
		},
		State: &core.SystemState{
			Links: []geom.Segment{
				{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 2, Y: 1.5}},
				{A: geom.Point{X: 0, Y: 1.5}, B: geom.Point{X: 2, Y: 0}},
				{A: geom.Point{X: 1, Y: 0}, B: geom.Point{X: 1, Y: 1.5}},
			},
			GridWidth:       2,
			GridHeight:      1,
			GridCellSize:    0.5,
			EllipseExcess:   0.6,
			LoLi:            core.DefaultLoLiOptions(),
			Refs:            core.DefaultReferenceOptions(),
			MatcherName:     core.MatcherWKNN,
			RecSigmaDB:      4,
			MaskThresholdDB: 1.5,
			Mask:            mask,
			X:               x,
			Observed:        observed,
			Vacant:          []float64{-40, -41, -42},
			RefCells:        []int{1, 3},
		},
		Track: &track.TrackerState{
			Filter: track.FilterState{
				Opts:        track.Options{ProcessStd: 0.75, MeasurementStd: 1.5, GateSigma: 4, MaxCoast: 3},
				Initialized: true,
				Coasts:      1,
				X:           [2]float64{1.25, 0.5},
				Y:           [2]float64{0.75, -0.125},
				PX:          [2][2]float64{{0.5, 0.0625}, {0.0625, 0.25}},
				PY:          [2][2]float64{{0.375, 0.03125}, {0.03125, 0.125}},
			},
			HasFix:  true,
			LastFix: time.Unix(1_700_000_001, 5).UTC(),
		},
	}
	if bare {
		s.State.Observed = nil
		s.Track = nil
	}
	return s
}

// TestEncodeGolden pins the encoder's bytes: Encode and EncodeVersion(…,
// VersionPrev) of a fixed snapshot must reproduce the files under
// testdata byte for byte, so a change to how the encoder builds its
// buffer cannot move the format. The files were written by the
// two-buffer encoder that first shipped versions 1 and 2. Each
// encoding must also fill the one buffer it allocates exactly.
func TestEncodeGolden(t *testing.T) {
	for _, tc := range []struct {
		file    string
		bare    bool
		version uint32
	}{
		{"golden_v2.snap", false, Version},
		{"golden_v2_bare.snap", true, Version},
		{"golden_v1.snap", false, VersionPrev},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeVersion(goldenSnapshot(tc.bare), tc.version)
		if err != nil {
			t.Fatal(err)
		}
		if tc.version == Version {
			enc, err := Encode(goldenSnapshot(tc.bare))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, got) {
				t.Errorf("%s: Encode and EncodeVersion(%d) differ", tc.file, Version)
			}
		}
		if len(got) != cap(got) {
			t.Errorf("%s: %d bytes encoded into a buffer sized %d", tc.file, len(got), cap(got))
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: encoding (%d bytes) differs from the golden file (%d bytes) at offset %d",
				tc.file, len(got), len(want), i)
		}
	}
	sn := testSnapshot(t)
	if n := testing.AllocsPerRun(20, func() { _, _ = Encode(sn) }); n != 1 {
		t.Errorf("Encode made %v allocations, want 1", n)
	}
	// Decode fills each matrix's own backing slice: one allocation per
	// matrix, not a scratch slice plus a copy.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = Decode(golden) }); n > 15 {
		t.Errorf("Decode of golden_v2.snap made %v allocations, want at most 15", n)
	}
}

// roomSnapshot is testSnapshot with its state swapped for a zone
// calibrated at day 0 on a testbed room, as a service would snapshot it.
func roomSnapshot(b *testing.B, cfg testbed.Config) *Snapshot {
	dep, err := testbed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		b.Fatal(err)
	}
	survey, _ := dep.Survey(0)
	sys, err := core.NewSystem(layout, survey, dep.VacantCapture(0, 100), core.DefaultSystemOptions())
	if err != nil {
		b.Fatal(err)
	}
	sn := testSnapshot(b)
	sn.State = sys.ExportState()
	return sn
}

// BenchmarkSnapshotCodec times the codec alone: Encode of a calibrated
// zone's snapshot and Decode of its bytes, with no store copy or
// RestoreSystem around them. The paper room has 10 links over 96 cells;
// the 12 m room has 17 links over 400 cells.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, room := range []struct {
		name string
		cfg  testbed.Config
	}{
		{"paper", testbed.PaperConfig()},
		{"12m", testbed.SquareConfig(12)},
	} {
		sn := roomSnapshot(b, room.cfg)
		data, err := Encode(sn)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(room.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Encode(sn); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(room.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
