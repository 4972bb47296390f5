package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/snap"
	"tafloc/internal/store"
	"tafloc/taflocerr"
)

// feedAndCollect drives one batch at a time through a zone and records
// the estimate each batch produces, waiting for the worker between
// batches so every batch is exactly one processing round — which makes
// the published sequence deterministic and comparable across services.
func feedAndCollect(t *testing.T, s *Service, id string, batches [][]Report) []Estimate {
	t.Helper()
	var out []Estimate
	for bi, b := range batches {
		prev := s.Stats()[id].Estimates
		for s.Ingest(id, append([]Report(nil), b...)) == ErrQueueFull {
			time.Sleep(time.Millisecond)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st := s.Stats()[id]; st.Estimates > prev {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("zone %s: batch %d produced no estimate", id, bi)
			}
			time.Sleep(time.Millisecond)
		}
		e, ok := s.Position(id)
		if !ok {
			t.Fatalf("zone %s: no position after batch %d", id, bi)
		}
		out = append(out, e)
	}
	return out
}

// comparable strips the per-service fields (Seq, Time) that legitimately
// differ between two services publishing the same physics.
func comparableEstimate(e Estimate) Estimate {
	e.Seq = 0
	e.Time = time.Time{}
	return e
}

// TestSnapshotRestoreFidelity is the acceptance test of the persistence
// subsystem: a zone restored from a snapshot must publish estimates
// identical to the never-restarted zone for the same report stream —
// Present, DeviationDB, Cell, Point, Distance, Confidence, and Reports
// all equal, not approximately equal.
func TestSnapshotRestoreFidelity(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	cfg := Config{Window: 4, DetectThresholdDB: 0.25}

	original := newTestService(t, cfg)
	if err := original.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	data, err := original.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}

	// The restoring service is configured differently on purpose: the
	// snapshot's per-zone config (window 4, threshold 0.25, detector mad)
	// must win over these defaults for the restored zone.
	restoredSvc := newTestService(t, Config{Window: 16, DetectThresholdDB: 5, Detector: core.DetectorRMS})
	id, err := restoredSvc.RestoreZone(data)
	if err != nil {
		t.Fatal(err)
	}
	if id != "z" {
		t.Fatalf("restored id %q", id)
	}

	var batches [][]Report
	for i := 0; i < 12; i++ {
		p := geom.Point{X: 0.4 + 0.25*float64(i), Y: 0.5 + 0.15*float64(i%5)}
		batches = append(batches, targetBatch(dep, p))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := original.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := restoredSvc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	a := feedAndCollect(t, original, "z", batches)
	b := feedAndCollect(t, restoredSvc, "z", batches)
	for i := range a {
		if comparableEstimate(a[i]) != comparableEstimate(b[i]) {
			t.Fatalf("estimate %d diverges:\noriginal: %+v\nrestored: %+v", i, a[i], b[i])
		}
	}
}

// TestRestoreZoneRejectsDamage: corrupt inputs fail closed with the
// typed snapshot errors and leave the service untouched.
func TestRestoreZoneRejectsDamage(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	data, err := svc.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}

	other := newTestService(t, Config{})
	if _, err := other.RestoreZone(data[:len(data)/2]); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("truncated: %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := other.RestoreZone(flipped); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("bit-flipped: %v", err)
	}
	if zones := other.Zones(); len(zones) != 0 {
		t.Errorf("failed restores registered zones: %v", zones)
	}
	if _, err := other.RestoreZone(data); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	if _, err := other.RestoreZone(data); !errors.Is(err, ErrZoneExists) {
		t.Errorf("duplicate restore: %v", err)
	}
	if _, err := svc.SnapshotZone("nope"); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("snapshot of unknown zone: %v", err)
	}
}

// TestCheckpointRestoreDir round-trips a whole service through a state
// directory (store.Dir) and checks the per-zone config survives.
func TestCheckpointRestoreDir(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25})
	for _, id := range []string{"a", "b", "zone/with slash"} {
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := svc.CheckpointStore(store.NewDir(dir)); err != nil {
		t.Fatal(err)
	}

	// A stray corrupt file must be reported but not block the others.
	if err := os.WriteFile(filepath.Join(dir, "junk.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := newTestService(t, Config{Window: 16})
	ids, err := fresh.RestoreStore(store.NewDir(dir))
	if err == nil {
		t.Error("RestoreStore swallowed the corrupt file")
	}
	if len(ids) != 3 {
		t.Fatalf("restored %v, want 3 zones", ids)
	}
	got := fresh.Zones()
	want := []string{"a", "b", "zone/with slash"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zones %v, want %v", got, want)
		}
	}

	// The restored zones keep the checkpointing service's window, not the
	// restoring service's.
	rt, err := fresh.SnapshotZone("a")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := snap.Decode(rt)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Config.Window != 4 || sn.Config.DetectThresholdDB != 0.25 {
		t.Errorf("restored zone config %+v, want window 4 / threshold 0.25", sn.Config)
	}

	// Missing directory: restores nothing, no error.
	ids, err = fresh.RestoreStore(store.NewDir(filepath.Join(dir, "missing")))
	if err != nil || len(ids) != 0 {
		t.Errorf("missing dir: %v, %v", ids, err)
	}
}

// TestCheckpointPrunesRemovedZones: a zone removed at runtime must not
// resurrect from its stale snapshot file on the next boot.
func TestCheckpointPrunesRemovedZones(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	for _, id := range []string{"keep", "doomed"} {
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	st := store.NewDir(dir)
	if err := svc.CheckpointStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed.snap")); err != nil {
		t.Fatal(err)
	}
	if err := svc.RemoveZone("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := svc.CheckpointStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale snapshot of removed zone survived the checkpoint: %v", err)
	}
	fresh := newTestService(t, Config{})
	ids, err := fresh.RestoreStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "keep" {
		t.Errorf("restored %v, want only the kept zone", ids)
	}
	// Files the service did not write (no .snap suffix) are left alone.
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := svc.CheckpointStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("checkpoint touched a non-snapshot file: %v", err)
	}
}

// TestRestoreRejectsImplausibleWindow: a CRC-valid snapshot whose
// serve config asks for an absurd window must fail closed instead of
// driving the per-link allocations into a panic or OOM.
func TestRestoreRejectsImplausibleWindow(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	sn, err := svc.snapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	sn.Config.Window = 1 << 52
	data, err := snap.Encode(sn)
	if err != nil {
		t.Fatal(err)
	}
	other := newTestService(t, Config{})
	if _, err := other.RestoreZone(data); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("implausible window: %v", err)
	}
	if zones := other.Zones(); len(zones) != 0 {
		t.Errorf("rejected snapshot still registered zones: %v", zones)
	}
}

// TestRestoreRejectsOutOfRangeRadioMap: a CRC-valid snapshot that
// names nn and holds 1e200 in every radio-map entry would make every
// fingerprint distance +Inf, leaving nn no nearest cell. It must fail
// closed through both RestoreZone and the PUT route and register no
// zone, rather than restore and fail on its first report.
func TestRestoreRejectsOutOfRangeRadioMap(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	sn, err := svc.snapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	sn.State.MatcherName = core.MatcherNN
	sn.State.X.Fill(1e200)
	data, err := snap.Encode(sn)
	if err != nil {
		t.Fatal(err)
	}

	other := newTestService(t, Config{
		ZoneFactory: func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error) {
			return testSystem(t, dep), nil
		},
	})
	if _, err := other.RestoreZone(data); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("RestoreZone: %v, want ErrSnapshotCorrupt", err)
	}
	srv := httptest.NewServer(other.Handler())
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v2/zones/z/snapshot", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != taflocerr.HTTPStatus(taflocerr.CodeSnapshotCorrupt) {
		t.Errorf("PUT: %d, want %d", resp.StatusCode, taflocerr.HTTPStatus(taflocerr.CodeSnapshotCorrupt))
	}
	if zones := other.Zones(); len(zones) != 0 {
		t.Errorf("rejected snapshot still registered zones: %v", zones)
	}
}

// TestCheckpointerWritesAndFinalizes: the background checkpointer
// produces files at the interval and once more on shutdown.
func TestCheckpointerWritesAndFinalizes(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := store.NewDir(dir)
	ctx, cancel := context.WithCancel(context.Background())
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var cpErr error
	if err := svc.StartCheckpointer(ctx, st, 20*time.Millisecond, func(err error) { cpErr = err }); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartCheckpointer(ctx, st, 0, nil); err == nil {
		t.Error("zero interval accepted")
	}

	path := filepath.Join(dir, "z.snap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint file before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	svc.Wait() // covers the checkpointer goroutine, including the final write
	if cpErr != nil {
		t.Fatalf("checkpoint error: %v", cpErr)
	}
	sn, err := snap.ReadStore(st, "z")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Zone != "z" {
		t.Errorf("checkpointed zone %q", sn.Zone)
	}
}

// TestSnapshotHTTP covers the /v2 snapshot routes: factory gating, the
// GET/PUT round trip, and typed rejection of damaged uploads.
func TestSnapshotHTTP(t *testing.T) {
	dep := testDeployment(t)

	// Without a ZoneFactory the routes are gated off.
	gated := newTestService(t, Config{})
	if err := gated.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(gated.Handler())
	defer gsrv.Close()
	resp, err := http.Get(gsrv.URL + "/v2/zones/z/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("ungated snapshot GET: %d, want 501", resp.StatusCode)
	}

	svc := newTestService(t, Config{
		ZoneFactory: func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error) {
			return testSystem(t, dep), nil
		},
	})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err = http.Get(srv.URL + "/v2/zones/z/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot GET: %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("snapshot content type %q", ct)
	}
	if _, err := snap.Decode(data); err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}

	put := func(id string, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v2/zones/"+id+"/snapshot", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// PUT under a mismatched id is refused.
	if resp := put("other", data); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched id PUT: %d, want 400", resp.StatusCode)
	}
	// Damaged uploads carry the snapshot taxonomy codes.
	if resp := put("z", data[:len(data)-3]); resp.StatusCode != taflocerr.HTTPStatus(taflocerr.CodeSnapshotCorrupt) {
		t.Errorf("truncated PUT: %d", resp.StatusCode)
	}
	if resp := put("z", []byte("garbage")); resp.StatusCode != taflocerr.HTTPStatus(taflocerr.CodeSnapshotCorrupt) {
		t.Errorf("garbage PUT: %d", resp.StatusCode)
	}
	// Existing zone conflicts; after removal the PUT warm-starts it.
	if resp := put("z", data); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate PUT: %d, want 409", resp.StatusCode)
	}
	if err := svc.RemoveZone("z"); err != nil {
		t.Fatal(err)
	}
	if resp := put("z", data); resp.StatusCode != http.StatusCreated {
		t.Errorf("restore PUT: %d, want 201", resp.StatusCode)
	}
	if _, ok := svc.System("z"); !ok {
		t.Error("zone not registered after PUT restore")
	}
}

// TestWatchHeartbeat reads the raw SSE stream of an idle zone and
// requires periodic comment heartbeats between estimates.
func TestWatchHeartbeat(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{WatchHeartbeat: 20 * time.Millisecond})
	if err := svc.AddZone("quiet", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, srv.URL+"/v2/zones/quiet/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	beats := 0
	deadline := time.AfterFunc(5*time.Second, cancelReq)
	defer deadline.Stop()
	for sc.Scan() && beats < 3 {
		if strings.HasPrefix(sc.Text(), ": heartbeat") {
			beats++
		}
	}
	if beats < 3 {
		t.Fatalf("saw %d heartbeats on an idle stream, want >= 3", beats)
	}
}

// TestDisabledDetectionGate: an explicit zero threshold (negative
// sentinel in Config) must disable presence gating — the same vacant
// stream a default zone reports as absent is always Present.
func TestDisabledDetectionGate(t *testing.T) {
	dep := testDeployment(t)

	vacantBatch := func() []Report {
		y := dep.Channel.MeasureVacant(0, 1)
		b := make([]Report, len(y))
		for i, v := range y {
			b[i] = Report{Link: i, RSS: v}
		}
		return b
	}

	gateless := newTestService(t, Config{Window: 2, DetectThresholdDB: -1})
	if err := gateless.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := gateless.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batches := make([][]Report, 8)
	for i := range batches {
		batches[i] = vacantBatch()
	}
	for _, e := range feedAndCollect(t, gateless, "z", batches) {
		if !e.Present {
			t.Fatalf("gate disabled but estimate reports absent: %+v", e)
		}
		if e.Cell < 0 {
			t.Fatalf("gate disabled but no localization ran: %+v", e)
		}
	}
}

// TestConfigNormalization pins the unset-vs-explicit-zero semantics.
func TestConfigNormalization(t *testing.T) {
	def := Config{}.withDefaults()
	if def.QueueDepth != 256 || def.Window != 8 ||
		def.DetectThresholdDB != 1 || def.WatchBuffer != 16 ||
		def.WatchHeartbeat != 15*time.Second || def.Detector != core.DetectorMAD {
		t.Errorf("zero config defaults: %+v", def)
	}
	exp := Config{
		QueueDepth:        -1,
		Window:            -1,
		DetectThresholdDB: -1,
		WatchBuffer:       -1,
		WatchHeartbeat:    -1,
	}.withDefaults()
	if exp.QueueDepth != 1 || exp.Window != 1 || exp.WatchBuffer != 1 {
		t.Errorf("explicit minimums: %+v", exp)
	}
	if exp.DetectThresholdDB != 0 {
		t.Errorf("explicit zero threshold: %g", exp.DetectThresholdDB)
	}
	if exp.WatchHeartbeat != 0 {
		t.Errorf("explicit zero heartbeat: %v", exp.WatchHeartbeat)
	}
}

// TestNewServiceErrorNotPanic: the constructor surfaces configuration
// errors as taflocerr values.
func TestNewServiceErrorNotPanic(t *testing.T) {
	if _, err := NewService(Config{Detector: "no-such"}); !errors.Is(err, taflocerr.ErrBadRequest) {
		t.Errorf("NewService unknown detector: %v", err)
	}
}

// TestRestorePreRedesignSnapshot is the compatibility acceptance pin:
// a snapshot written in the previous format version (v1, no trajectory
// section) still warm-starts a zone on the redesigned service, with the
// service's own history/track defaults filling the unrecorded fields.
func TestRestorePreRedesignSnapshot(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	sn, err := svc.snapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := snap.EncodeVersion(sn, snap.VersionPrev)
	if err != nil {
		t.Fatal(err)
	}

	other := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25, History: 64})
	id, err := other.RestoreZone(legacy)
	if err != nil {
		t.Fatalf("restoring a v%d snapshot failed: %v", snap.VersionPrev, err)
	}
	if id != "z" {
		t.Fatalf("restored id %q", id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := other.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// The restored zone serves, and the restoring service's defaults
	// govern the unrecorded trajectory config: history is available.
	var batches [][]Report
	for i := 0; i < 8; i++ {
		batches = append(batches, targetBatch(dep, geom.Point{X: 1.5, Y: 1.2}))
	}
	feedZone(t, other, "z", batches, 2)
	hist, err := other.History("z", 0)
	if err != nil || len(hist) == 0 {
		t.Errorf("history on v1-restored zone: %d estimates, %v", len(hist), err)
	}
	if _, err := other.Track("z", 0); err != nil {
		t.Errorf("track on v1-restored zone: %v", err)
	}
}

// TestSnapshotCarriesTracker: the trajectory filter state travels in
// the snapshot, so a restored zone's track resumes instead of
// re-initializing — its next smoothed point continues from the
// original's state.
func TestSnapshotCarriesTracker(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var batches [][]Report
	for i := 0; i < 10; i++ {
		batches = append(batches, targetBatch(dep, geom.Point{X: 1.5, Y: 1.2}))
	}
	feedZone(t, svc, "z", batches, 4)

	sn, err := svc.snapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	if sn.Track == nil {
		t.Fatal("snapshot of a tracking zone has no tracker state")
	}
	if !sn.Track.Filter.Initialized || !sn.Track.HasFix {
		t.Errorf("captured tracker state not live: %+v", sn.Track)
	}
	if sn.Config.History != 256 {
		t.Errorf("captured history depth %d, want the default 256", sn.Config.History)
	}

	data, err := snap.Encode(sn)
	if err != nil {
		t.Fatal(err)
	}
	other := newTestService(t, Config{})
	if _, err := other.RestoreZone(data); err != nil {
		t.Fatal(err)
	}
	other.mu.RLock()
	z := other.zones["z"]
	other.mu.RUnlock()
	if z.pub.tracker == nil {
		t.Fatal("restored zone has no tracker")
	}
	got := z.pub.tracker.Export()
	if got.Filter != sn.Track.Filter || got.HasFix != sn.Track.HasFix ||
		!got.LastFix.Equal(sn.Track.LastFix) {
		t.Errorf("restored tracker state diverges:\n got  %+v\n want %+v", got, sn.Track)
	}
}
