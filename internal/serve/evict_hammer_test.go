package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/store"
)

// TestEvictRehydrateHammer is the concurrency acceptance test of the
// residency tier, meant to run under -race: one victim zone is fed a
// deterministic batch sequence while goroutines force Evict/Rehydrate
// cycles and hammer every read surface (Position, Track, History,
// Snapshot, Stats, Watch) against it, and an unrelated zone churns
// through UpdateZone/RemoveZone/AddZone the whole time. The victim's
// published estimates must be bit-identical to a never-evicted control
// fed the same reports — evictions may cost latency, never physics.
func TestEvictRehydrateHammer(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	cfg := Config{Window: 4, DetectThresholdDB: 0.25}

	control := newTestService(t, cfg)
	if err := control.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	data, err := control.SnapshotZone("z")
	if err != nil {
		t.Fatal(err)
	}
	hammered := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, Store: store.NewMem()})
	if _, err := hammered.RestoreZone(data); err != nil {
		t.Fatal(err)
	}

	// The churn zone needs real Systems; two are enough to alternate
	// between (a System's read plane is immutable, so reuse is safe).
	churnDep := testDeployment(t)
	churnA, churnB := testSystem(t, churnDep), testSystem(t, churnDep)
	if err := hammered.AddZone("churn", churnA); err != nil {
		t.Fatal(err)
	}

	var batches [][]Report
	for i := 0; i < 30; i++ {
		p := geom.Point{X: 0.3 + 0.2*float64(i%8), Y: 0.4 + 0.25*float64(i%5)}
		batches = append(batches, targetBatch(dep, p))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := control.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := hammered.Start(ctx); err != nil {
		t.Fatal(err)
	}

	a := feedAndCollect(t, control, "z", batches)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var evictAttempts atomic.Int64

	// Forced residency churn on the victim.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := hammered.EvictZone("z"); err == nil {
				evictAttempts.Add(1)
			}
			_ = hammered.RehydrateZone("z")
			runtime.Gosched()
		}
	}()
	// Read surface against the victim: every accessor that can trigger a
	// rehydrate or observe a cold zone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = hammered.Position("z")
			_, _ = hammered.Track("z", 4)
			_, _ = hammered.History("z", 4)
			_, _ = hammered.SnapshotZone("z")
			_ = hammered.Stats()
			_ = hammered.HotZones()
			runtime.Gosched()
		}
	}()
	// Watch stream: subscribe, drain a few events, unsubscribe, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ch, unwatch, err := hammered.Watch("z")
			if err != nil {
				continue
			}
			for i := 0; i < 3; i++ {
				select {
				case <-ch:
				case <-time.After(time.Millisecond):
				case <-stop:
					unwatch()
					return
				}
			}
			unwatch()
		}
	}()
	// Zone-table churn next door: swap, remove, re-add.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := churnB
			if i%2 == 1 {
				next = churnA
			}
			_ = hammered.UpdateZone("churn", next)
			if i%3 == 2 {
				_ = hammered.RemoveZone("churn")
				_ = hammered.AddZone("churn", next)
			}
			runtime.Gosched()
		}
	}()

	b := feedAndCollect(t, hammered, "z", batches)
	close(stop)
	wg.Wait()

	for i := range a {
		if comparableEstimate(a[i]) != comparableEstimate(b[i]) {
			t.Fatalf("estimate %d diverges under residency churn:\ncontrol:  %+v\nhammered: %+v",
				i, a[i], b[i])
		}
	}
	st := hammered.Stats()["z"]
	if st.RehydrateErrors != 0 || st.EvictErrors != 0 {
		t.Errorf("residency errors against a healthy store: %+v", st)
	}
	if got := len(hammered.Zones()); got < 1 {
		t.Errorf("victim zone lost from the table (zones: %d)", got)
	}
	waitHotIndexConsistent(t, hammered)
	t.Logf("hammer: %d successful forced evictions, %d rehydrates",
		evictAttempts.Load(), st.Rehydrates)
}

// TestManyZonesOverCapServeAll drives MaxHotZones=2 with 8 zones fed
// from concurrent producers — the capacity claim under contention
// rather than in sequence. Every zone must end registered with a
// published estimate while the resident count converges back under the
// cap.
func TestManyZonesOverCapServeAll(t *testing.T) {
	const zones, hotCap = 8, 2
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25, MaxHotZones: hotCap, Store: store.NewMem()})
	batches := make([][][]Report, zones)
	for zi := 0; zi < zones; zi++ {
		dep := testDeployment(t)
		id := fmt.Sprintf("zone-%d", zi)
		if err := svc.AddZone(id, testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		p := geom.Point{X: 0.5 + 0.3*float64(zi%5), Y: 0.7 + 0.2*float64(zi%4)}
		for b := 0; b < 10; b++ {
			batches[zi] = append(batches[zi], targetBatch(dep, p))
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
				for {
					err := svc.Ingest(id, append([]Report(nil), batch...))
					if err == nil {
						break
					}
					// Queue pressure and transient rehydrate contention both
					// resolve by retrying; anything else is a real failure.
					if err != ErrQueueFull {
						t.Errorf("zone %s: %v", id, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(zi)
	}
	wg.Wait()
	for zi := 0; zi < zones; zi++ {
		id := fmt.Sprintf("zone-%d", zi)
		waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Seq > 0 })
	}
	waitForHotZones(t, svc, hotCap)
	waitHotIndexConsistent(t, svc)
	if got := svc.HotZones(); got > hotCap {
		t.Errorf("%d resident Models after convergence, cap %d", got, hotCap)
	}
	if got := len(svc.Zones()); got != zones {
		t.Errorf("Zones() = %d, want %d", got, zones)
	}
}
