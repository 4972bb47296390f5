package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/testbed"
)

// testDeployment builds a small, fast deployment: 6 links over a
// 6x4-cell grid with a cheap survey.
func testDeployment(t testing.TB) *testbed.Deployment {
	t.Helper()
	cfg := testbed.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	dep, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// newTestService builds a service from cfg, failing the test on a
// configuration error.
func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testSystem(t testing.TB, dep *testbed.Deployment) *core.System {
	t.Helper()
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	survey, _ := dep.Survey(0)
	sys, err := core.NewSystem(layout, survey, dep.VacantCapture(0, 50), core.DefaultSystemOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// targetBatch samples one live measurement of a target at p and shapes it
// as a report batch. The channel sampler is not concurrency-safe, so
// batches are prepared before goroutines fan out.
func targetBatch(dep *testbed.Deployment, p geom.Point) []Report {
	y := dep.Channel.MeasureLive(p, 0)
	batch := make([]Report, len(y))
	for i, v := range y {
		batch[i] = Report{Link: i, RSS: v}
	}
	return batch
}

func waitForEstimate(t *testing.T, s *Service, zone string, want func(Estimate) bool) Estimate {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e, ok := s.Position(zone); ok && want(e) {
			return e
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("zone %s: no matching estimate before deadline", zone)
	return Estimate{}
}

// TestConcurrentIngestAcrossZones drives four zones from concurrent
// producers and checks every zone independently localizes its own target.
func TestConcurrentIngestAcrossZones(t *testing.T) {
	const zones = 4
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25})
	deps := make([]*testbed.Deployment, zones)
	targets := make([]geom.Point, zones)
	batches := make([][][]Report, zones)
	for zi := 0; zi < zones; zi++ {
		deps[zi] = testDeployment(t)
		id := fmt.Sprintf("zone-%d", zi)
		if err := svc.AddZone(id, testSystem(t, deps[zi])); err != nil {
			t.Fatal(err)
		}
		// Distinct target per zone so cross-zone mixups would show up as
		// localization error.
		targets[zi] = geom.Point{X: 0.6 + 0.6*float64(zi), Y: 0.9 + 0.3*float64(zi)}
		for b := 0; b < 30; b++ {
			batches[zi] = append(batches[zi], targetBatch(deps[zi], targets[zi]))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for zi := 0; zi < zones; zi++ {
		wg.Add(1)
		go func(zi int) {
			defer wg.Done()
			id := fmt.Sprintf("zone-%d", zi)
			for _, batch := range batches[zi] {
				for svc.Ingest(id, batch) == ErrQueueFull {
					time.Sleep(time.Millisecond)
				}
			}
		}(zi)
	}
	wg.Wait()
	for zi := 0; zi < zones; zi++ {
		id := fmt.Sprintf("zone-%d", zi)
		e := waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Present })
		if e.Zone != id {
			t.Errorf("zone %s: estimate labeled %s", id, e.Zone)
		}
		if err := e.Point.Dist(targets[zi]); err > 2.5 {
			t.Errorf("zone %s: localization error %.2f m (target %v, got %v)", id, err, targets[zi], e.Point)
		}
	}
	stats := svc.Stats()
	for zi := 0; zi < zones; zi++ {
		id := fmt.Sprintf("zone-%d", zi)
		st := stats[id]
		if st.Received == 0 || st.Estimates == 0 {
			t.Errorf("zone %s: stats %+v, want nonzero received and estimates", id, st)
		}
	}
	cancel()
	svc.Wait()
}

// TestQueryDuringUpdate hammers the lock-free query path while a LoLi-IR
// fingerprint update and report ingestion run concurrently. Run with
// -race: the point is that no path ever trips the detector.
func TestQueryDuringUpdate(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	target := geom.Point{X: 1.5, Y: 1.2}
	var batches [][]Report
	for b := 0; b < 50; b++ {
		batches = append(batches, targetBatch(dep, target))
	}
	refCols, _ := dep.SurveyCells(sys.References(), 30)
	vacant := dep.VacantCapture(30, 20)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // ingest
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			_ = svc.Ingest("z", append([]Report(nil), batches[i%len(batches)]...))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // reconstruct
		defer wg.Done()
		updSys, _ := svc.System("z")
		for i := 0; i < 3; i++ {
			if _, err := updSys.Update(refCols, vacant); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	go func() { // query
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			svc.Position("z")
			svc.Positions()
			svc.Stats()
		}
	}()
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Seq > 3 })
	close(done)
	wg.Wait()
	cancel()
	svc.Wait()
}

// TestSnapshotConsistency verifies copy-on-write semantics: a published
// estimate for one zone never disturbs another zone's entry, sequence
// numbers increase monotonically, and handed-out snapshots are immutable
// reader copies.
func TestSnapshotConsistency(t *testing.T) {
	svc := newTestService(t, Config{})
	sys := testSystem(t, testDeployment(t))
	for _, id := range []string{"a", "b"} {
		if err := svc.AddZone(id, sys); err != nil {
			t.Fatal(err)
		}
	}
	za, zb := svc.zones["a"], svc.zones["b"]
	svc.publish(za, Estimate{Zone: "a", Cell: 1})
	svc.publish(zb, Estimate{Zone: "b", Cell: 2})
	before := svc.Positions()
	if len(before) != 2 {
		t.Fatalf("want 2 zones in snapshot, got %d", len(before))
	}
	svc.publish(za, Estimate{Zone: "a", Cell: 3})
	after := svc.Positions()
	if before["a"].Cell != 1 {
		t.Errorf("reader copy mutated: a.Cell = %d, want 1", before["a"].Cell)
	}
	if after["a"].Cell != 3 || after["b"].Cell != 2 {
		t.Errorf("snapshot after publish: a=%+v b=%+v", after["a"], after["b"])
	}
	if !(after["a"].Seq > before["a"].Seq) {
		t.Errorf("sequence not monotonic: %d then %d", before["a"].Seq, after["a"].Seq)
	}
	// Mutating a reader copy must not leak into the service.
	after["b"] = Estimate{Zone: "b", Cell: 99}
	if e, _ := svc.Position("b"); e.Cell != 2 {
		t.Errorf("service snapshot mutated through reader copy: %+v", e)
	}
}

// TestPublishSkipsServiceLock pins that a publish takes only its own
// zone's lock: with the service-wide registry lock write-held, a
// publish must still reach the zone's watcher.
func TestPublishSkipsServiceLock(t *testing.T) {
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	ch, stop, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	z := svc.zones["z"]
	published := make(chan struct{})
	svc.mu.Lock()
	go func() {
		defer close(published)
		svc.publish(z, Estimate{Zone: "z", Cell: 7})
	}()
	var got Estimate
	var delivered bool
	select {
	case got = <-ch:
		delivered = true
	case <-time.After(time.Second):
	}
	svc.mu.Unlock()
	<-published
	if !delivered {
		t.Fatal("publish blocked on the service lock")
	}
	if got.Cell != 7 {
		t.Errorf("watcher got %+v, want cell 7", got)
	}
}

// BenchmarkPublishFanout measures one publish into a service of 1,000
// and of 10,000 registered zones. A publish locks only its own zone's
// publication and shares nothing with other zones but the Seq counter,
// so its cost does not depend on the zone count: the two sub-benchmarks
// should read alike. The zones share one small System, and history is
// off and queues hold one batch so that 10,000 zones stay small.
func BenchmarkPublishFanout(b *testing.B) {
	sys := testSystem(b, testDeployment(b))
	for _, zones := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("zones=%d", zones), func(b *testing.B) {
			svc := newTestService(b, Config{QueueDepth: -1, History: -1})
			zs := make([]*zone, zones)
			for i := range zs {
				id := fmt.Sprintf("zone-%05d", i)
				if err := svc.AddZone(id, sys); err != nil {
					b.Fatal(err)
				}
				zs[i] = svc.zones[id]
				svc.publish(zs[i], Estimate{Zone: id, Cell: i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z := zs[i%zones]
				svc.publish(z, Estimate{Zone: z.id, Cell: i})
			}
		})
	}
}

// TestReportErrors covers the ingestion error paths: unknown zone,
// out-of-range link, and queue overflow with load shedding.
func TestReportErrors(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{QueueDepth: 1})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("nope", []Report{{Link: 0, RSS: -40}}); err != ErrUnknownZone {
		t.Errorf("unknown zone: got %v", err)
	}
	if err := svc.Ingest("z", []Report{{Link: 99, RSS: -40}}); err == nil {
		t.Error("out-of-range link accepted")
	}
	// Service not started: the queue (depth 1) fills and then sheds.
	if err := svc.Ingest("z", []Report{{Link: 0, RSS: -40}}); err != nil {
		t.Errorf("first batch: %v", err)
	}
	if err := svc.Ingest("z", []Report{{Link: 0, RSS: -40}}); err != ErrQueueFull {
		t.Errorf("overflow: got %v, want ErrQueueFull", err)
	}
	if st := svc.Stats()["z"]; st.Dropped == 0 {
		t.Errorf("dropped counter not incremented: %+v", st)
	}
}

// TestHTTPEndpoints exercises the JSON surface end to end over a real
// HTTP server.
func TestHTTPEndpoints(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, BatchSize: 16, DetectThresholdDB: 0.25})
	if err := svc.AddZone("room-a", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Healthz before traffic.
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Position before any estimate: 404.
	resp, err = http.Get(srv.URL + "/v1/zones/room-a/position")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty position: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Ingest until an estimate appears.
	target := geom.Point{X: 1.8, Y: 1.2}
	for i := 0; i < 10; i++ {
		body, _ := json.Marshal(reportRequest{Zone: "room-a", Reports: targetBatch(dep, target)})
		resp, err = http.Post(srv.URL+"/v1/report", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitForEstimate(t, svc, "room-a", func(e Estimate) bool { return e.Present })

	resp, err = http.Get(srv.URL + "/v1/zones/room-a/position")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("position: %d", resp.StatusCode)
	}
	var e Estimate
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Zone != "room-a" || !e.Present {
		t.Errorf("position estimate: %+v", e)
	}

	// Unknown zone report: 404.
	body, _ := json.Marshal(reportRequest{Zone: "nope", Reports: []Report{{Link: 0, RSS: -40}}})
	resp, err = http.Post(srv.URL+"/v1/report", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown zone report: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Zone list.
	resp, err = http.Get(srv.URL + "/v1/zones")
	if err != nil {
		t.Fatal(err)
	}
	var zl struct {
		Zones []string `json:"zones"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&zl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(zl.Zones) != 1 || zl.Zones[0] != "room-a" {
		t.Errorf("zone list: %v", zl.Zones)
	}
	cancel()
	svc.Wait()
}

// TestVacantReportsRefreshBaseline checks that vacant-flagged samples
// re-anchor presence detection: after the environment drifts, a vacant
// room must read as absent against the refreshed baseline (the stale
// day-0 baseline alone would see the drift as a target), and a real
// deviation on top of the drift must still read as present.
func TestVacantReportsRefreshBaseline(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	day0 := sys.Vacant()
	svc := newTestService(t, Config{Window: 4, BatchSize: 8, DetectThresholdDB: 1})
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Drifted empty room: every link 3 dB off the day-0 baseline, flagged
	// vacant. Against day-0 alone this looks like a 3 dB target.
	drifted := make([]Report, len(day0))
	for i, v := range day0 {
		drifted[i] = Report{Link: i, RSS: v + 3, Vacant: true}
	}
	for k := 0; k < 8; k++ {
		if err := svc.Ingest("z", append([]Report(nil), drifted...)); err != nil {
			t.Fatal(err)
		}
	}
	e := waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports >= 8*uint64(len(day0)) })
	if e.Present {
		t.Errorf("drifted vacant room read as present (deviation %.2f dB)", e.DeviationDB)
	}
	// A target-like deviation on top of the drift must still be detected.
	live := make([]Report, len(day0))
	for i, v := range day0 {
		live[i] = Report{Link: i, RSS: v + 3 - 5}
	}
	for k := 0; k < 8; k++ {
		if err := svc.Ingest("z", append([]Report(nil), live...)); err != nil {
			t.Fatal(err)
		}
	}
	e = waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports >= 16*uint64(len(day0)) })
	if !e.Present {
		t.Errorf("5 dB deviation from refreshed baseline read as absent (deviation %.2f dB)", e.DeviationDB)
	}
	cancel()
	svc.Wait()
}

// TestAddZoneRules covers registration constraints.
func TestAddZoneRules(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("", sys); err == nil {
		t.Error("empty id accepted")
	}
	if err := svc.AddZone("z", nil); err == nil {
		t.Error("nil system accepted")
	}
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("z", sys); err != ErrZoneExists {
		t.Errorf("duplicate: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Runtime lifecycle: zones can now join a started service.
	if err := svc.AddZone("late", sys); err != nil {
		t.Errorf("post-start AddZone: got %v", err)
	}
	if err := svc.Ingest("late", []Report{{Link: 0, RSS: -40}}); err != nil {
		t.Errorf("report to late-added zone: %v", err)
	}
	if err := svc.Start(ctx); err != ErrStarted {
		t.Errorf("double start: got %v", err)
	}
	cancel()
	svc.Wait()
}
