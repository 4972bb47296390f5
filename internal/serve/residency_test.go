package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/snap"
	"tafloc/internal/store"
	"tafloc/internal/store/storetest"
	"tafloc/taflocerr"
)

// waitForHotZones polls until the resident-Model count drops to at most
// want. Eviction runs asynchronously after publish (enforceCap fires
// when a locate round drains), so tests must wait for the cap rather
// than assert it at an instant.
func waitForHotZones(t *testing.T, s *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.HotZones() <= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("still %d hot zones (want <= %d) before deadline", s.HotZones(), want)
}

// TestMaxHotZonesCapsResidentModels is the capacity acceptance test of
// the residency tier: a service with MaxHotZones=N serving M > N zones
// keeps every zone registered and publishing while holding at most N
// resident Models, and cold zones rehydrate transparently when traffic
// returns to them.
func TestMaxHotZonesCapsResidentModels(t *testing.T) {
	const zones, hotCap = 6, 2
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, MaxHotZones: hotCap, Store: store.NewMem()})
	deps := make([]*struct {
		batch []Report
		pt    geom.Point
	}, zones)
	for zi := 0; zi < zones; zi++ {
		dep := testDeployment(t)
		id := fmt.Sprintf("zone-%d", zi)
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		p := geom.Point{X: 0.6 + 0.4*float64(zi%4), Y: 0.9 + 0.3*float64(zi%3)}
		deps[zi] = &struct {
			batch []Report
			pt    geom.Point
		}{batch: targetBatch(dep, p), pt: p}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Two full passes over all zones: the first forces evictions as each
	// zone's traffic pushes the service over cap, the second forces the
	// evicted zones to rehydrate on their next report.
	feed := func(pass int) {
		for zi := 0; zi < zones; zi++ {
			id := fmt.Sprintf("zone-%d", zi)
			prev, _ := svc.Position(id)
			for svc.Ingest(id, append([]Report(nil), deps[zi].batch...)) == ErrQueueFull {
				time.Sleep(time.Millisecond)
			}
			waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Seq > prev.Seq })
			_ = pass
		}
	}
	feed(1)
	waitForHotZones(t, svc, hotCap)
	feed(2)
	waitForHotZones(t, svc, hotCap)

	waitHotIndexConsistent(t, svc)
	if got := svc.HotZones(); got > hotCap {
		t.Errorf("zone table holds %d resident Models, cap is %d", got, hotCap)
	}
	if got := len(svc.Zones()); got != zones {
		t.Errorf("Zones() = %d entries, want %d: eviction must not unregister", got, zones)
	}
	stats := svc.Stats()
	var cold int
	var evictions, rehydrates uint64
	for zi := 0; zi < zones; zi++ {
		id := fmt.Sprintf("zone-%d", zi)
		if _, ok := svc.Position(id); !ok {
			t.Errorf("zone %s: published estimate lost across eviction", id)
		}
		st := stats[id]
		if st.Cold {
			cold++
		}
		evictions += st.Evictions
		rehydrates += st.Rehydrates
		if st.RehydrateErrors != 0 || st.EvictErrors != 0 {
			t.Errorf("zone %s: spurious residency errors %+v", id, st)
		}
	}
	if cold < zones-hotCap {
		t.Errorf("%d cold zones, want >= %d", cold, zones-hotCap)
	}
	if evictions < zones-hotCap {
		t.Errorf("total evictions %d, want >= %d", evictions, zones-hotCap)
	}
	if rehydrates == 0 {
		t.Error("second feeding pass caused no rehydrations")
	}
}

// TestEvictRehydrateFidelity pins the core promise of tiered storage: a
// zone forced through an evict/rehydrate cycle between every batch
// publishes estimates bit-identical to an untouched control fed the
// same reports, and an evict/rehydrate round trip with no intervening
// traffic leaves the exported snapshot identical modulo SavedAt.
func TestEvictRehydrateFidelity(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	cfg := Config{Window: 4, DetectThresholdDB: 0.25}

	control := newTestService(t, cfg)
	if err := control.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	// Clone the calibrated zone into the evicted service over the
	// snapshot codec so both start from identical state.
	data, err := control.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	evicted := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: store.NewMem()})
	if _, err := evicted.RestoreZone(data); err != nil {
		t.Fatal(err)
	}

	var batches [][]Report
	for i := 0; i < 12; i++ {
		p := geom.Point{X: 0.4 + 0.25*float64(i), Y: 0.5 + 0.15*float64(i%5)}
		batches = append(batches, targetBatch(dep, p))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := control.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := evicted.Start(ctx); err != nil {
		t.Fatal(err)
	}

	a := feedAndCollect(t, control, "z", batches)
	var b []Estimate
	for bi := range batches {
		// Force the full cold path before every batch: the report below
		// must rehydrate from the store to be processed at all.
		if err := evicted.EvictZone("z"); err != nil {
			t.Fatalf("evict before batch %d: %v", bi, err)
		}
		if st := evicted.Stats()["z"]; !st.Cold {
			t.Fatalf("zone still hot after EvictZone before batch %d", bi)
		}
		b = append(b, feedAndCollect(t, evicted, "z", batches[bi:bi+1])...)
	}
	for i := range a {
		if comparableEstimate(a[i]) != comparableEstimate(b[i]) {
			t.Fatalf("estimate %d diverges:\ncontrol: %+v\nevicted: %+v", i, a[i], b[i])
		}
	}

	// Lossless round trip: export, evict, rehydrate, export again.
	before, err := evicted.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	if err := evicted.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := evicted.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	after, err := evicted.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	sa, err := snap.Decode(before)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := snap.Decode(after)
	if err != nil {
		t.Fatal(err)
	}
	sa.SavedAt, sb.SavedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(sa, sb) {
		t.Error("snapshot changed across an idle evict/rehydrate cycle")
	}

	st := evicted.Stats()["z"]
	if st.Evictions == 0 || st.Rehydrates == 0 {
		t.Errorf("counters did not move: %+v", st)
	}
}

// TestUpdateAfterRehydrateMatchesControl is the serve twin of core's
// TestUpdateAfterRestoreMatchesOriginal: a rehydrated zone builds its
// LoLi-IR reconstructor on its first fingerprint update, and that update
// publishes the same database, observed mask and references, bit for
// bit, and the same estimates as the same update on a never-evicted
// control.
func TestUpdateAfterRehydrateMatchesControl(t *testing.T) {
	dep := testDeployment(t)
	control := newTestService(t, Config{})
	if err := control.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	data, err := control.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	cycled := newTestService(t, Config{Store: store.NewMem()})
	if _, err := cycled.RestoreZone(data); err != nil {
		t.Fatal(err)
	}
	if err := cycled.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := cycled.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	a, ok := control.System("z")
	if !ok {
		t.Fatal("control zone has no System")
	}
	b, ok := cycled.System("z")
	if !ok {
		t.Fatal("rehydrated zone has no System")
	}
	refCols, _ := dep.SurveyCells(a.References(), 30)
	vac := dep.VacantCapture(30, 50)
	for _, sys := range []*core.System{a, b} {
		if _, err := sys.UpdateContext(context.Background(), refCols, vac); err != nil {
			t.Fatal(err)
		}
	}
	ma, mb := a.Model(), b.Model()
	if !mb.Fingerprints().Equal(ma.Fingerprints(), 0) {
		t.Fatal("updated databases differ")
	}
	if !mb.Observed().Equal(ma.Observed(), 0) {
		t.Fatal("updated observed masks differ")
	}
	if got, want := mb.References(), ma.References(); !reflect.DeepEqual(got, want) {
		t.Fatalf("references %v != %v", got, want)
	}
	for i := 0; i < 8; i++ {
		y := dep.Channel.MeasureLive(geom.Point{X: 0.4 + 0.35*float64(i), Y: 0.5 + 0.2*float64(i%5)}, 30)
		la, err1 := ma.Locate(y, nil)
		lb, err2 := mb.Locate(y, nil)
		if err1 != nil || err2 != nil || la != lb {
			t.Fatalf("locate %d diverges: %+v (%v) vs %+v (%v)", i, la, err1, lb, err2)
		}
	}
}

// hotIndexMismatch cross-checks the hot set against the zone table:
// every zone in the set must be registered, hold a System and appear
// once, and no registered zone holding a System may be missing from
// it. It returns "" when the two agree.
func hotIndexMismatch(s *Service) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	resident := 0
	for _, z := range s.zones {
		if z.sys.Load() != nil {
			resident++
		}
	}
	seen := make(map[*zone]bool)
	for _, z := range s.hot {
		switch {
		case seen[z]:
			return fmt.Sprintf("zone %q indexed twice", z.id)
		case s.zones[z.id] != z:
			return fmt.Sprintf("indexed zone %q is not registered", z.id)
		case z.sys.Load() == nil:
			return fmt.Sprintf("indexed zone %q holds no System", z.id)
		}
		seen[z] = true
	}
	if len(s.hot) != resident {
		return fmt.Sprintf("hot set %d, zones holding a System %d", len(s.hot), resident)
	}
	return ""
}

// waitHotIndexConsistent waits for hotIndexMismatch to report nothing:
// a task still in flight when a hammer stops may rehydrate or evict for
// a moment longer.
func waitHotIndexConsistent(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		msg := hotIndexMismatch(s)
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("residency accounting: %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEveryRegistrationRunsCapPass: each way a zone registers runs the
// hot-cap pass before it returns, so registering a second zone on a
// service capped at one hot zone leaves one hot zone. UpdateZone does
// too: updating a cold zone makes it hot, before or after Start.
func TestEveryRegistrationRunsCapPass(t *testing.T) {
	dep := testDeployment(t)
	src := newTestService(t, Config{})
	if err := src.AddZone("b", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	data, err := src.SnapshotZone("b")
	if err != nil {
		t.Fatal(err)
	}
	// updateCold registers b, which evicts a, and then gives a a new
	// System.
	updateCold := func(t *testing.T, svc *Service) {
		if err := svc.AddZone("b", testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		if !svc.Stats()["a"].Cold {
			t.Fatal("registering b left a hot")
		}
		if err := svc.UpdateZone("a", testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		register func(t *testing.T, svc *Service)
	}{
		{"AddZone", func(t *testing.T, svc *Service) {
			if err := svc.AddZone("b", testSystem(t, dep)); err != nil {
				t.Fatal(err)
			}
		}},
		{"POST zone", func(t *testing.T, svc *Service) {
			if code, _, _ := doReq(t, svc.Handler(), http.MethodPost, "/v2/zones/b", "{}"); code != http.StatusCreated {
				t.Fatalf("POST /v2/zones/b: %d, want 201", code)
			}
		}},
		{"RestoreZone", func(t *testing.T, svc *Service) {
			if _, err := svc.RestoreZone(data); err != nil {
				t.Fatal(err)
			}
		}},
		{"Restore", func(t *testing.T, svc *Service) {
			if err := svc.store.Put("b", data); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Restore(); err != nil {
				t.Fatal(err)
			}
		}},
		{"PUT snapshot", func(t *testing.T, svc *Service) {
			if code, _, _ := doReq(t, svc.Handler(), http.MethodPut, "/v2/zones/b/snapshot", string(data)); code != http.StatusCreated {
				t.Fatalf("PUT /v2/zones/b/snapshot: %d, want 201", code)
			}
		}},
		{"UpdateZone before Start", updateCold},
		{"UpdateZone after Start", func(t *testing.T, svc *Service) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			if err := svc.Start(ctx); err != nil {
				t.Fatal(err)
			}
			updateCold(t, svc)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t, Config{MaxHotZones: 1, Store: store.NewMem(), ZoneFactory: testFactory(t, dep)})
			if err := svc.AddZone("a", testSystem(t, dep)); err != nil {
				t.Fatal(err)
			}
			tc.register(t, svc)
			if got := svc.HotZones(); got != 1 {
				t.Errorf("HotZones = %d once the registration returned, want 1", got)
			}
			if msg := hotIndexMismatch(svc); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestEnforceCapEvictsOldestTouched pins the victim rule: when a
// rehydrate puts the service over its cap, the hot zone touched longest
// ago is evicted, whatever order the zones were added in.
func TestEnforceCapEvictsOldestTouched(t *testing.T) {
	sys := testSystem(t, testDeployment(t))
	ids := []string{"a", "b", "c", "d"}
	for _, order := range [][]string{{"b", "c", "d"}, {"d", "b", "c"}, {"c", "d", "b"}} {
		svc := newTestService(t, Config{MaxHotZones: 3, Store: store.NewMem()})
		for _, id := range ids {
			if err := svc.AddZone(id, sys); err != nil {
				t.Fatal(err)
			}
		}
		if !svc.Stats()["a"].Cold {
			t.Fatal("adding a fourth zone to a cap of 3 did not evict the first")
		}
		for _, id := range order {
			if err := svc.RehydrateZone(id); err != nil { // touches the hot zone
				t.Fatal(err)
			}
		}
		if err := svc.RehydrateZone("a"); err != nil {
			t.Fatal(err)
		}
		stats := svc.Stats()
		for _, id := range ids {
			if got, want := stats[id].Cold, id == order[0]; got != want {
				t.Errorf("touch order %v: zone %s cold = %v, want %v", order, id, got, want)
			}
		}
		if msg := hotIndexMismatch(svc); msg != "" {
			t.Errorf("touch order %v: %s", order, msg)
		}
	}
}

// TestRemoveZoneDuringOverCapPass races RemoveZone against the cap
// pass. The zone being removed, v, still holds its System, because its
// removal is held in the quiesce step by a locate stuck in the zone's
// matcher; but it left the hot set when it was unregistered, so it no
// longer counts against the cap. Registering x then leaves two live
// zones under a cap of 2 and evicts nothing. Registering y runs an
// over-cap pass, which must return while the removal is still in
// flight, evict the oldest-touched live zone (w) and never pick v.
func TestRemoveZoneDuringOverCapPass(t *testing.T) {
	dep := testDeployment(t)
	gated, gm, release := newGatedSystem(t, dep, "residency-test-gated")
	defer release()
	other, x, y := testSystem(t, dep), testSystem(t, dep), testSystem(t, dep)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: -1, MaxHotZones: 2, Store: faults})
	if err := svc.AddZone("v", gated); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("w", other); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("v", targetBatch(dep, geom.Point{X: 1.2, Y: 0.9})); err != nil {
		t.Fatal(err)
	}
	awaitGate(t, gm.entered, "the locate never reached the gated matcher")
	if err := svc.RehydrateZone("w"); err != nil { // v becomes the coldest hot zone
		t.Fatal(err)
	}

	removed := make(chan error, 1)
	go func() { removed <- svc.RemoveZone("v") }()
	deadline := time.Now().Add(5 * time.Second)
	for slices.Contains(svc.Zones(), "v") {
		if time.Now().After(deadline) {
			t.Fatal("RemoveZone never unregistered the zone")
		}
		time.Sleep(time.Millisecond)
	}
	register := func(id string, sys *core.System) {
		t.Helper()
		added := make(chan error, 1)
		go func() { added <- svc.AddZone(id, sys) }()
		select {
		case err := <-added:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("registering %s did not return while the removal was in flight", id)
		}
	}
	register("x", x)
	if st := svc.Stats(); st["w"].Cold || st["x"].Cold {
		t.Errorf("w cold = %v, x cold = %v: two live zones under a cap of 2 must both stay hot", st["w"].Cold, st["x"].Cold)
	}
	if got := svc.HotZones(); got != 2 {
		t.Errorf("HotZones = %d after registering x, want 2 (w, x)", got)
	}
	register("y", y) // three live zones over a cap of 2
	if st := svc.Stats(); !st["w"].Cold || st["x"].Cold || st["y"].Cold {
		t.Errorf("w cold = %v, x cold = %v, y cold = %v: want w, the oldest-touched live zone, evicted",
			st["w"].Cold, st["x"].Cold, st["y"].Cold)
	}
	if n := faults.Calls(storetest.OpPut, "v"); n != 0 {
		t.Errorf("the cap pass wrote %d snapshots of v, which is being removed", n)
	}
	select {
	case err := <-removed:
		t.Fatalf("RemoveZone returned (%v) before its locate was released", err)
	default:
	}
	release()
	select {
	case err := <-removed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RemoveZone did not return after the locate finished")
	}
	waitHotIndexConsistent(t, svc)
	if got := svc.HotZones(); got != 2 {
		t.Errorf("HotZones = %d after the removal, want 2 (x, y)", got)
	}
}

// TestRehydrateFailureTypedAndRetries: a store that cannot serve the
// snapshot back turns the zone's requests into CodeRehydrateFailed
// errors — but the zone stays registered, and the moment the store
// heals the next request rehydrates and serves as if nothing happened.
func TestRehydrateFailureTypedAndRetries(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 0.9, Y: 0.9})
	feedAndCollect(t, svc, "z", [][]Report{batch})

	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("backend down")
	faults.FailOp(storetest.OpGet, "z", injected, storetest.Forever)

	err := svc.Ingest("z", append([]Report(nil), batch...))
	if !errors.Is(err, ErrRehydrate) {
		t.Fatalf("Report on unrehydratable zone = %v, want ErrRehydrate", err)
	}
	if !errors.Is(err, taflocerr.ErrRehydrateFailed) {
		t.Fatalf("error %v does not match the taflocerr sentinel", err)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("error %v does not wrap the store's cause", err)
	}
	// The failure is per-request degradation, not deregistration.
	if got := svc.Zones(); len(got) != 1 || got[0] != "z" {
		t.Fatalf("zone list after failed rehydrate: %v", got)
	}
	if st := svc.Stats()["z"]; !st.Cold || st.RehydrateErrors == 0 {
		t.Fatalf("stats after failed rehydrate: %+v", st)
	}
	// Direct rehydrate fails the same typed way.
	if err := svc.RehydrateZone("z"); !errors.Is(err, ErrRehydrate) {
		t.Fatalf("RehydrateZone = %v, want ErrRehydrate", err)
	}

	faults.Clear()
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if st := svc.Stats()["z"]; st.Cold || st.Rehydrates == 0 {
		t.Fatalf("zone did not recover once the store healed: %+v", st)
	}
}

// TestTornSnapshotFailsClosed: a torn read from the store (truncated
// payload) must surface as a typed rehydrate failure via the snapshot
// codec's CRC, never as a garbage Model — and a later intact read
// recovers the zone.
func TestTornSnapshotFailsClosed(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 1.2, Y: 0.6})
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}

	faults.TearGet("z", 64, storetest.Forever)
	err := svc.Ingest("z", append([]Report(nil), batch...))
	if !errors.Is(err, ErrRehydrate) {
		t.Fatalf("Report over torn snapshot = %v, want ErrRehydrate", err)
	}
	faults.Clear()
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if calls := faults.Calls(storetest.OpGet, "z"); calls < 2 {
		t.Errorf("expected at least 2 Get attempts (torn + retry), saw %d", calls)
	}
}

// TestEvictFailureKeepsServing: when the store rejects the checkpoint
// write, the eviction aborts — the zone stays hot, the failure is
// counted, and the service keeps serving from the resident Model. A
// broken store costs memory headroom, never availability.
func TestEvictFailureKeepsServing(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	batch := targetBatch(dep, geom.Point{X: 0.7, Y: 1.1})
	feedAndCollect(t, svc, "z", [][]Report{batch})

	injected := errors.New("disk full")
	faults.FailOp(storetest.OpPut, "z", injected, storetest.Forever)
	err := svc.EvictZone("z")
	if !errors.Is(err, injected) {
		t.Fatalf("EvictZone = %v, want the store's error", err)
	}
	st := svc.Stats()["z"]
	if st.Cold {
		t.Fatal("zone went cold despite the checkpoint write failing")
	}
	if st.EvictErrors == 0 || st.Evictions != 0 {
		t.Fatalf("eviction accounting after failed write: %+v", st)
	}
	if svc.HotZones() != 1 {
		t.Fatalf("HotZones = %d after failed eviction, want 1", svc.HotZones())
	}
	// Still serving, from the still-resident Model: no store reads needed.
	feedAndCollect(t, svc, "z", [][]Report{batch})
	if calls := faults.Calls(storetest.OpGet, "z"); calls != 0 {
		t.Errorf("serving a hot zone touched the store: %d Gets", calls)
	}
}

// TestEvictWithoutStoreUnsupported: forcing an eviction on a service
// with no snapshot store is a typed refusal, not a panic or a lost
// Model.
func TestEvictWithoutStoreUnsupported(t *testing.T) {
	svc := newTestService(t, Config{Window: 4})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	err := svc.EvictZone("z")
	if taflocerr.CodeOf(err) != taflocerr.CodeUnsupported {
		t.Fatalf("EvictZone without a store = %v, want code unsupported", err)
	}
	if svc.HotZones() != 1 {
		t.Fatalf("HotZones = %d, want 1", svc.HotZones())
	}
}

// TestStoreOpsWithoutStoreUnsupported: Checkpoint, Restore and
// StartCheckpointer work on the service's one snapshot store; without
// one each is a typed refusal, as EvictZone is.
func TestStoreOpsWithoutStoreUnsupported(t *testing.T) {
	svc := newTestService(t, Config{Window: 4})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Checkpoint", svc.Checkpoint},
		{"Restore", func() error { _, err := svc.Restore(); return err }},
		{"StartCheckpointer", func() error { return svc.StartCheckpointer(context.Background(), time.Second, nil) }},
	} {
		if err := op.run(); taflocerr.CodeOf(err) != taflocerr.CodeUnsupported {
			t.Errorf("%s without a store = %v, want code unsupported", op.name, err)
		}
	}
}

// TestHotCapNeedsStore: a hot cap with no store to evict into fails
// NewService, whether the cap is set or selected by a negative value.
func TestHotCapNeedsStore(t *testing.T) {
	for _, hotCap := range []int{1, -1} {
		_, err := NewService(Config{MaxHotZones: hotCap})
		if taflocerr.CodeOf(err) != taflocerr.CodeBadRequest || !errors.Is(err, taflocerr.ErrBadRequest) {
			t.Errorf("NewService(MaxHotZones: %d) with no store = %v, want code bad_request", hotCap, err)
		}
	}
}

// TestRemoveZoneDeletesFromStore: removing a zone deletes its snapshot
// from the store at once, so a later Restore boot cannot resurrect it.
func TestRemoveZoneDeletesFromStore(t *testing.T) {
	dep := testDeployment(t)
	mem := store.NewMem()
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: mem})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	feedAndCollect(t, svc, "z", [][]Report{targetBatch(dep, geom.Point{X: 0.8, Y: 0.8})})
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if ids, err := mem.List(); err != nil || len(ids) != 1 {
		t.Fatalf("store after eviction: %v, %v", ids, err)
	}
	if err := svc.RemoveZone("z"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get("z"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("snapshot survived RemoveZone: %v", err)
	}
	boot := newTestService(t, Config{Window: 4, Store: mem})
	ids, err := boot.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("removed zone resurrected on boot: %v", ids)
	}
}

// TestCheckpointStorePrunes covers checkpoint pruning through the Store
// interface with the in-memory backend: after a zone is removed, the
// next checkpoint leaves only the live zones' entries, exactly as the
// directory backend keeps only their .snap files.
func TestCheckpointStorePrunes(t *testing.T) {
	depA, depB := testDeployment(t), testDeployment(t)
	dst := store.NewMem()
	svc := newTestService(t, Config{Window: 4, Store: dst})
	if err := svc.AddZone("a", testSystem(t, depA)); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("b", testSystem(t, depB)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := dst.List(); len(ids) != 2 {
		t.Fatalf("checkpoint wrote %v, want 2 zones", ids)
	}
	if err := svc.RemoveZone("b"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ids, err := dst.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("checkpoint after removal holds %v, want [a]", ids)
	}
}

// TestCheckpointPrunesWhatRemoveZoneLeft: RemoveZone deletes a zone's
// snapshot itself, but only as a best effort, so the checkpoint's prune
// is what deletes an entry no registered zone owns: a removed zone's
// whose Delete failed, and one for a zone that was never registered. A
// Delete that fails during the prune fails the checkpoint.
func TestCheckpointPrunesWhatRemoveZoneLeft(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, Store: faults})
	for _, id := range []string{"keep", "doomed"} {
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	faults.FailOp(storetest.OpDelete, "doomed", errors.New("disk busy"), 1)
	if err := svc.RemoveZone("doomed"); err != nil {
		t.Fatal(err)
	}
	data, err := faults.Get("doomed")
	if err != nil {
		t.Fatalf("the failed Delete removed the snapshot: %v", err)
	}
	if err := faults.Put("ghost", data); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("disk full")
	faults.FailOp(storetest.OpDelete, "ghost", injected, 1)
	if err := svc.Checkpoint(); !errors.Is(err, injected) {
		t.Fatalf("checkpoint whose prune Delete failed = %v, want the store's error", err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ids, err := faults.List(); err != nil || !reflect.DeepEqual(ids, []string{"keep"}) {
		t.Errorf("store after the prune holds %v (%v), want [keep]", ids, err)
	}
}

// TestCheckpointIntoResidencyStore: a checkpoint under a hot cap
// rewrites only the hot zone; cold zones' snapshots are already current
// in the store (eviction wrote them), so the checkpoint leaves them
// alone.
func TestCheckpointIntoResidencyStore(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, MaxHotZones: 1, Store: faults})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	if svc.HotZones() != 1 {
		t.Fatalf("HotZones = %d, want 1", svc.HotZones())
	}
	cold := map[string]bool{}
	puts := map[string]int{}
	for id, st := range svc.Stats() {
		cold[id] = st.Cold
		puts[id] = faults.Calls(storetest.OpPut, id)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		want := puts[id] + 1
		if cold[id] {
			want = puts[id]
		}
		if got := faults.Calls(storetest.OpPut, id); got != want {
			t.Errorf("zone %s (cold %v): %d puts after checkpoint, want %d", id, cold[id], got, want)
		}
	}
}

// TestRestoreStoreSkipsDamagedEntries: one damaged entry in a backend
// reports a typed error but does not block the healthy zones from
// restoring — the partial-restore contract, pinned through the Store
// interface for every backend.
func TestRestoreStoreSkipsDamagedEntries(t *testing.T) {
	dep := testDeployment(t)
	src := store.NewMem()
	seed := newTestService(t, Config{Window: 4, Store: src})
	if err := seed.AddZone("good", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := src.Put("bad", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	boot := newTestService(t, Config{Window: 4, Store: src})
	ids, err := boot.Restore()
	if err == nil {
		t.Fatal("damaged entry restored without error")
	}
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("restored %v, want [good] despite the damaged sibling", ids)
	}
	if got := boot.Zones(); len(got) != 1 || got[0] != "good" {
		t.Fatalf("zones after partial restore: %v", got)
	}
}
