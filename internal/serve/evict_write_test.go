package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/store"
	"tafloc/internal/store/storetest"
	"tafloc/internal/track"
)

// The residency write rule (see residency.go): an eviction, or a
// checkpoint, skips a zone the store already holds — one with no
// trajectory filter whose System still serves the Model the store last
// read or wrote. These tests count the store's Puts to pin both halves:
// a clean zone costs no write, and no change is ever dropped.

// requirePuts fails the test unless the store has seen want Puts.
func requirePuts(t *testing.T, faults *storetest.FaultStore, want int, when string) {
	t.Helper()
	if got := faults.Calls(storetest.OpPut, ""); got != want {
		t.Fatalf("%s: %d Puts, want %d", when, got, want)
	}
}

// startService starts svc and stops it when the test ends.
func startService(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCleanEvictionWritesNothing: an untracked zone that the store
// already holds goes cold with no Put, so its eviction succeeds even
// while every Put fails.
func TestCleanEvictionWritesNothing(t *testing.T) {
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 4, History: -1, Store: faults})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 1, "first eviction")
	if err := svc.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 1, "eviction after a rehydrate")

	if err := svc.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	faults.FailOp(storetest.OpPut, "", fmt.Errorf("disk full"), storetest.Forever)
	if err := svc.EvictZone("z"); err != nil {
		t.Fatalf("clean eviction during a store outage: %v", err)
	}
	if st := svc.Stats()["z"]; !st.Cold || st.EvictErrors != 0 || st.Evictions != 3 {
		t.Fatalf("stats after a clean eviction during an outage: %+v", st)
	}
	requirePuts(t, faults, 1, "clean eviction during an outage")
}

// TestEvictionKeepsModelUpdates: a Model installed on a rehydrated zone
// (a fingerprint update, or a reference reselection) makes its next
// eviction write, and the zone then rehydrates into that Model's
// database, observed mask and references, bit for bit.
func TestEvictionKeepsModelUpdates(t *testing.T) {
	dep := testDeployment(t)
	updates := map[string]func(*core.System) error{
		"UpdateContext": func(sys *core.System) error {
			refCols, _ := dep.SurveyCells(sys.References(), 30)
			_, err := sys.UpdateContext(context.Background(), refCols, dep.VacantCapture(30, 50))
			return err
		},
		"Reselect": func(sys *core.System) error {
			_, err := sys.Reselect()
			return err
		},
	}
	for name, update := range updates {
		t.Run(name, func(t *testing.T) {
			faults := storetest.New(store.NewMem())
			svc := newTestService(t, Config{Window: 4, History: -1, Store: faults})
			if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
				t.Fatal(err)
			}
			if err := svc.EvictZone("z"); err != nil {
				t.Fatal(err)
			}
			sys, ok := svc.System("z")
			if !ok {
				t.Fatal("zone did not rehydrate")
			}
			if err := update(sys); err != nil {
				t.Fatal(err)
			}
			want := sys.Model()
			if err := svc.EvictZone("z"); err != nil {
				t.Fatal(err)
			}
			requirePuts(t, faults, 2, "eviction after "+name)
			back, ok := svc.System("z")
			if !ok {
				t.Fatal("zone did not rehydrate after the update")
			}
			got := back.Model()
			if !got.Fingerprints().Equal(want.Fingerprints(), 0) {
				t.Error("rehydrated database differs from the updated one")
			}
			if a, b := got.Observed(), want.Observed(); (a == nil) != (b == nil) || a != nil && !a.Equal(b, 0) {
				t.Error("rehydrated observed mask differs from the updated one")
			}
			if a, b := got.References(), want.References(); !reflect.DeepEqual(a, b) {
				t.Errorf("rehydrated references %v, want %v", a, b)
			}
		})
	}
}

// TestTrackedZoneIsAlwaysWritten: a zone with a trajectory filter
// counts as changed whenever it is hot, since the filter may have
// folded a fix, so each eviction and each checkpoint writes it, and a
// boot from the store restores the live filter state.
func TestTrackedZoneIsAlwaysWritten(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 2, Store: faults})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	startService(t, svc)
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := svc.RehydrateZone("z"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	requirePuts(t, faults, 3, "two checkpoints after a rehydrate")

	e := feedAndCollect(t, svc, "z", [][]Report{targetBatch(dep, geom.Point{X: 1.5, Y: 1.2})})[0]
	if !e.Present || e.Cell < 0 {
		t.Fatalf("target batch published %+v, want a present fix", e)
	}
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 4, "eviction after a present fix")

	live := zoneTracker(t, svc, "z")
	boot := newTestService(t, Config{Store: faults})
	if _, err := boot.Restore(); err != nil {
		t.Fatal(err)
	}
	got := zoneTracker(t, boot, "z")
	if got.Filter != live.Filter || got.HasFix != live.HasFix || !got.LastFix.Equal(live.LastFix) {
		t.Errorf("booted tracker state diverges:\n got  %+v\n want %+v", got, live)
	}
}

// zoneTracker exports the live trajectory-filter state of a zone.
func zoneTracker(t *testing.T, svc *Service, id string) track.TrackerState {
	t.Helper()
	z, ok := svc.lookup(id)
	if !ok {
		t.Fatalf("zone %s not registered", id)
	}
	p := z.pub
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tracker == nil {
		t.Fatalf("zone %s has no tracker", id)
	}
	return p.tracker.Export()
}

// TestCheckpointIntoResidencyStoreWritesChanges: a checkpoint writes
// the hot zones the store does not hold yet, then nothing while no zone
// changes, then exactly the zone that installed a new Model.
func TestCheckpointIntoResidencyStoreWritesChanges(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 2, History: -1, Store: faults})
	for _, id := range []string{"a", "b"} {
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 2, "first checkpoint")
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 2, "second checkpoint, no change")

	sys, _ := svc.System("b")
	if _, err := sys.Reselect(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 3, "checkpoint after a reselect")
	if got := faults.Calls(storetest.OpPut, "b"); got != 2 {
		t.Errorf("zone b written %d times, want 2", got)
	}
}

// TestCheckpointSkipsReplacedZone: a checkpoint that looked a zone up
// before UpdateZone replaced it does not write the old System over the
// snapshot of the replacement, which is all the replacement has once it
// is cold.
func TestCheckpointSkipsReplacedZone(t *testing.T) {
	dep := testDeployment(t)
	faults := storetest.New(store.NewMem())
	svc := newTestService(t, Config{Window: 2, History: -1, Store: faults})
	old, replacement := testSystem(t, dep), testSystem(t, dep)
	if reflect.DeepEqual(old.Vacant(), replacement.Vacant()) {
		t.Fatal("the two Systems have one vacant baseline; the test cannot tell them apart")
	}
	if err := svc.AddZone("z", old); err != nil {
		t.Fatal(err)
	}
	stale, _ := svc.lookup("z")
	if err := svc.UpdateZone("z", replacement); err != nil {
		t.Fatal(err)
	}
	if err := svc.EvictZone("z"); err != nil {
		t.Fatal(err)
	}
	if err := svc.checkpointZone(stale); err != nil {
		t.Fatal(err)
	}
	requirePuts(t, faults, 1, "eviction, then a checkpoint of the replaced zone")
	sys, ok := svc.System("z")
	if !ok {
		t.Fatal("zone z did not rehydrate")
	}
	if !reflect.DeepEqual(sys.Vacant(), replacement.Vacant()) {
		t.Error("zone z rehydrated the replaced System's state")
	}
}

// BenchmarkEvictWrite prices the residency round trip with its write:
// the zone keeps trajectory history (the default), so each eviction
// exports, encodes and Puts the snapshot. BenchmarkEvictRehydrate in
// the root package prices the clean round trip of a zone without
// history.
func BenchmarkEvictWrite(b *testing.B) {
	sys := testSystem(b, testDeployment(b))
	backends := []struct {
		name  string
		store store.Store
	}{
		{"mem", store.NewMem()},
		{"dir", store.NewDir(b.TempDir())},
	}
	for _, backend := range backends {
		b.Run(backend.name, func(b *testing.B) {
			svc := newTestService(b, Config{Store: backend.store})
			if err := svc.AddZone("z", sys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.EvictZone("z"); err != nil {
					b.Fatal(err)
				}
				if err := svc.RehydrateZone("z"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
