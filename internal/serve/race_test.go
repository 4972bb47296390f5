package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
)

// TestLifecycleHammer drives every reader path (Report, Position,
// Positions, Watch, Stats, SnapshotZone) concurrently with the zone
// lifecycle mutators (RemoveZone, UpdateZone, AddZone) under the race
// detector. The assertions are weak on purpose — the test's job is to
// give -race interleavings, and to prove no operation panics or
// deadlocks while zones churn underneath it.
func TestLifecycleHammer(t *testing.T) {
	dep := testDeployment(t)
	// Pre-build systems and batches: construction is the expensive part
	// and the channel sampler is not concurrency-safe.
	systems := make(chan *core.System, 8)
	for i := 0; i < cap(systems); i++ {
		systems <- testSystem(t, dep)
	}
	var batches [][]Report
	for i := 0; i < 16; i++ {
		batches = append(batches, targetBatch(dep, geom.Point{X: 0.5 + 0.1*float64(i), Y: 0.8}))
	}

	const zones = 3
	svc := newTestService(t, Config{Window: 2, QueueDepth: 16, DetectThresholdDB: 0.25})
	ids := make([]string, zones)
	for i := range ids {
		ids[i] = fmt.Sprintf("z%d", i)
		sys := <-systems
		if err := svc.AddZone(ids[i], sys); err != nil {
			t.Fatal(err)
		}
		systems <- sys
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}

	// Readers and ingestors.
	for g := 0; g < 3; g++ {
		run(func(i int) {
			id := ids[i%zones]
			batch := append([]Report(nil), batches[i%len(batches)]...)
			err := svc.Ingest(id, batch)
			if err != nil && !errors.Is(err, ErrUnknownZone) && !errors.Is(err, ErrQueueFull) {
				t.Errorf("Report: %v", err)
			}
		})
	}
	run(func(i int) {
		svc.Position(ids[i%zones])
		svc.Positions()
		svc.Stats()
	})
	run(func(i int) {
		if _, err := svc.SnapshotZone(ids[i%zones]); err != nil && !errors.Is(err, ErrUnknownZone) {
			t.Errorf("SnapshotZone: %v", err)
		}
	})
	run(func(i int) {
		ch, stopW, err := svc.Watch(ids[i%zones])
		if err != nil {
			return // zone momentarily gone or service winding down
		}
		// Drain briefly, then detach; removal may close ch mid-drain.
		timeout := time.After(2 * time.Millisecond)
		for {
			select {
			case _, open := <-ch:
				if !open {
					stopW()
					return
				}
			case <-timeout:
				stopW()
				return
			}
		}
	})

	// Lifecycle mutators: each zone id is removed, re-added, and swapped
	// continuously.
	run(func(i int) {
		id := ids[i%zones]
		switch i % 3 {
		case 0:
			if err := svc.RemoveZone(id); err != nil && !errors.Is(err, ErrUnknownZone) {
				t.Errorf("RemoveZone: %v", err)
			}
		case 1:
			sys := <-systems
			err := svc.AddZone(id, sys)
			systems <- sys
			if err != nil && !errors.Is(err, ErrZoneExists) {
				t.Errorf("AddZone: %v", err)
			}
		default:
			sys := <-systems
			err := svc.UpdateZone(id, sys)
			systems <- sys
			if err != nil && !errors.Is(err, ErrUnknownZone) {
				t.Errorf("UpdateZone: %v", err)
			}
		}
	})

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	waitHotIndexConsistent(t, svc)
}

// TestSnapshotWhileUpdating: exporting a snapshot concurrently with
// System.UpdateContext must always yield a self-consistent snapshot
// (either the old or the new database — never a torn mix that fails
// restore).
func TestSnapshotWhileUpdating(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	refs := sys.References()
	refCols, _ := dep.SurveyCells(refs, 0)
	vac := dep.VacantCapture(0, 20)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.UpdateContext(context.Background(), refCols, vac); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		data, err := svc.SnapshotZone("z")
		if err != nil {
			t.Fatal(err)
		}
		other := newTestService(t, Config{})
		if _, err := other.RestoreZone(data); err != nil {
			t.Fatalf("snapshot %d taken mid-update does not restore: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
