package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/store"
	"tafloc/internal/store/storetest"
	"tafloc/taflocerr"
)

// TestRemoveZoneWhileIngesting hammers Report from concurrent producers
// while the zone is removed and re-added. Run with -race: the point is
// that the drain/swap sequence is clean under fire. After removal,
// Report must reject with ErrUnknownZone; after re-adding the same id,
// ingestion and estimation must work again.
func TestRemoveZoneWhileIngesting(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
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
	for b := 0; b < 40; b++ {
		batches = append(batches, targetBatch(dep, target))
	}
	waitIngest := func() {
		for i := 0; i < 10; i++ {
			_ = svc.Ingest("z", append([]Report(nil), batches[i%len(batches)]...))
		}
	}
	waitIngest()
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Seq > 0 })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = svc.Ingest("z", append([]Report(nil), batches[(i+p)%len(batches)]...))
			}
		}(p)
	}
	time.Sleep(5 * time.Millisecond)
	if err := svc.RemoveZone("z"); err != nil {
		t.Fatalf("RemoveZone under fire: %v", err)
	}
	if err := svc.Ingest("z", batches[0]); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("report after removal: %v, want ErrUnknownZone", err)
	}
	if _, ok := svc.Position("z"); ok {
		t.Error("snapshot still holds removed zone")
	}
	close(stop)
	wg.Wait()

	// Re-adding the same id works and serves fresh estimates.
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatalf("re-add same id: %v", err)
	}
	waitIngest()
	e := waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	if d := e.Point.Dist(target); d > 2.5 {
		t.Errorf("re-added zone localization error %.2f m", d)
	}
	if err := svc.RemoveZone("nope"); !errors.Is(err, taflocerr.ErrUnknownZone) {
		t.Errorf("remove unknown: %v", err)
	}
	cancel()
	svc.Wait()
}

// TestWatchTerminalEvent subscribes a watcher, streams a few estimates
// through it, then removes the zone and asserts the watcher observes a
// terminal Final estimate followed by channel close.
func TestWatchTerminalEvent(t *testing.T) {
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
	if _, _, err := svc.Watch("nope"); !errors.Is(err, ErrUnknownZone) {
		t.Fatalf("watch unknown zone: %v", err)
	}
	ch, stopWatch, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWatch()

	target := geom.Point{X: 1.2, Y: 0.9}
	go func() {
		for i := 0; i < 30; i++ {
			_ = svc.Ingest("z", targetBatch(dep, target))
			time.Sleep(time.Millisecond)
		}
	}()

	var got []Estimate
	deadline := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case e, open := <-ch:
			if !open {
				t.Fatal("watch channel closed before removal")
			}
			got = append(got, e)
		case <-deadline:
			t.Fatalf("only %d watched estimates before deadline", len(got))
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Errorf("watch events out of order: seq %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}

	if err := svc.RemoveZone("z"); err != nil {
		t.Fatal(err)
	}
	sawFinal := false
	for {
		select {
		case e, open := <-ch:
			if !open {
				if !sawFinal {
					t.Error("watch channel closed without a terminal Final estimate")
				}
				cancel()
				svc.Wait()
				return
			}
			if e.Final {
				sawFinal = true
				if e.Zone != "z" {
					t.Errorf("terminal event zone = %q", e.Zone)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no terminal event after removal")
		}
	}
}

// TestUpdateZoneSwapsSystem replaces a running zone's backing system and
// checks the swap preserves counters and watch subscriptions while new
// estimates flow from the new system.
func TestUpdateZoneSwapsSystem(t *testing.T) {
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
	target := geom.Point{X: 1.5, Y: 1.2}
	for i := 0; i < 10; i++ {
		_ = svc.Ingest("z", targetBatch(dep, target))
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Seq > 0 })
	received := svc.Stats()["z"].Received
	if received == 0 {
		t.Fatal("no reports received before swap")
	}

	ch, stopWatch, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWatch()
	drainWatch(ch)

	if err := svc.UpdateZone("z", testSystem(t, dep)); err != nil {
		t.Fatalf("UpdateZone: %v", err)
	}
	if got := svc.Stats()["z"].Received; got < received {
		t.Errorf("counters reset by swap: received %d < %d", got, received)
	}
	for i := 0; i < 10; i++ {
		_ = svc.Ingest("z", targetBatch(dep, target))
	}
	select {
	case e, open := <-ch:
		if !open {
			t.Fatal("watch channel closed by UpdateZone")
		}
		if e.Final {
			t.Fatal("UpdateZone sent a terminal event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no estimate through surviving watcher after swap")
	}

	if err := svc.UpdateZone("nope", testSystem(t, dep)); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("update unknown zone: %v", err)
	}
	if err := svc.UpdateZone("z", nil); err == nil {
		t.Error("nil system accepted by UpdateZone")
	}
	cancel()
	svc.Wait()
}

// TestAddZoneBeforeStartStillWorks pins the pre-redesign construction
// order: register everything, then Start.
func TestAddZoneBeforeStartStillWorks(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
	for i := 0; i < 3; i++ {
		if err := svc.AddZone(fmt.Sprintf("z%d", i), testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	target := geom.Point{X: 1.0, Y: 1.0}
	for i := 0; i < 10; i++ {
		_ = svc.Ingest("z1", targetBatch(dep, target))
	}
	waitForEstimate(t, svc, "z1", func(e Estimate) bool { return e.Seq > 0 })
	cancel()
	svc.Wait()
}

// TestRemovingZoneHidesPosition pins that a zone stops serving its last
// position as soon as RemoveZone unregisters it, not once the removal
// finishes: with the store delete held for 300 ms, Position and
// Positions must already agree with Zones and Ingest that the zone is
// gone.
func TestRemovingZoneHidesPosition(t *testing.T) {
	fs := storetest.New(store.NewMem())
	fs.DelayOp(storetest.OpDelete, "z", 300*time.Millisecond, 1)
	svc := newTestService(t, Config{Store: fs})
	if err := svc.AddZone("z", testSystem(t, testDeployment(t))); err != nil {
		t.Fatal(err)
	}
	svc.publish(svc.zones["z"], Estimate{Zone: "z", Cell: 1})
	removed := make(chan error, 1)
	go func() { removed <- svc.RemoveZone("z") }()
	time.Sleep(100 * time.Millisecond)

	if ids := svc.Zones(); len(ids) != 0 {
		t.Fatalf("zones mid-removal = %v, want none", ids)
	}
	if err := svc.Ingest("z", []Report{{Link: 0, RSS: -40}}); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("ingest mid-removal: %v, want ErrUnknownZone", err)
	}
	if e, ok := svc.Position("z"); ok {
		t.Errorf("Position mid-removal still answers %+v", e)
	}
	if e, ok := svc.Positions()["z"]; ok {
		t.Errorf("Positions mid-removal still lists %+v", e)
	}
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
}

// TestStoppedServiceRejectsMutations pins the post-stop contract for
// every way a service stops: Stop, the end of the Start context, and
// Stop before Start. Each open watcher receives a terminal Final and is
// closed, and zone mutations, new subscriptions, report batches and a
// later Start fail instead of creating work that can never run.
func TestStoppedServiceRejectsMutations(t *testing.T) {
	dep := testDeployment(t)
	for _, mode := range []struct {
		name    string
		started bool
		stop    func(svc *Service, cancel context.CancelFunc)
	}{
		{"Stop", true, func(svc *Service, _ context.CancelFunc) { svc.Stop() }},
		{"context", true, func(_ *Service, cancel context.CancelFunc) { cancel() }},
		{"Stop before Start", false, func(svc *Service, _ context.CancelFunc) { svc.Stop() }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
			if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if mode.started {
				if err := svc.Start(ctx); err != nil {
					t.Fatal(err)
				}
			}
			var watchers []<-chan Estimate
			for i := 0; i < 2; i++ {
				ch, stopWatch, err := svc.Watch("z")
				if err != nil {
					t.Fatal(err)
				}
				defer stopWatch()
				watchers = append(watchers, ch)
			}
			mode.stop(svc, cancel)
			svc.Wait()

			// Every pre-stop watcher is terminated rather than left hanging.
			for i, ch := range watchers {
				final := false
				deadline := time.After(5 * time.Second)
			drain:
				for {
					select {
					case e, open := <-ch:
						if !open {
							break drain
						}
						final = final || e.Final
					case <-deadline:
						t.Fatalf("watcher %d not closed by the stop", i)
					}
				}
				if !final {
					t.Errorf("watcher %d closed without a Final estimate", i)
				}
			}
			if err := svc.AddZone("late", testSystem(t, dep)); err == nil {
				t.Error("AddZone on a stopped service accepted (reports would be black-holed)")
			}
			if err := svc.UpdateZone("z", testSystem(t, dep)); err == nil {
				t.Error("UpdateZone on a stopped service accepted")
			}
			if _, _, err := svc.Watch("z"); err == nil {
				t.Error("Watch on a stopped service accepted (would block forever)")
			}
			batch := targetBatch(dep, geom.Point{X: 1.2, Y: 0.9})
			if err := svc.Ingest("z", batch); !errors.Is(err, taflocerr.ErrStarted) {
				t.Errorf("Ingest on a stopped service = %v, want a %s error (no worker would fold the batch)",
					err, taflocerr.CodeStarted)
			}
			if st := svc.Stats()["z"]; st.Received != 0 || st.Dropped != uint64(len(batch)) || st.QueueLen != 0 {
				t.Errorf("after a rejected batch: Received %d, Dropped %d, QueueLen %d; want 0, %d, 0",
					st.Received, st.Dropped, st.QueueLen, len(batch))
			}
			if err := svc.Start(context.Background()); !errors.Is(err, taflocerr.ErrStarted) {
				t.Errorf("Start on a stopped service = %v, want a %s error", err, taflocerr.CodeStarted)
			}
		})
	}
}

// TestPreStartBacklogLifecycle pins that a zone holding queued reports
// before Start can still be swapped or removed, also after a Stop that
// came before Start. Both wait out the zone's in-flight tasks, so a
// fold submitted before Start would leave them waiting on a worker that
// never runs.
func TestPreStartBacklogLifecycle(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep) // a System's read plane is immutable, so zones may share it
	batch := targetBatch(dep, geom.Point{X: 1.2, Y: 0.9})
	for _, row := range []struct {
		name string
		stop bool
		op   func(svc *Service) error
	}{
		{"UpdateZone before Start", false, func(svc *Service) error { return svc.UpdateZone("z", sys) }},
		{"RemoveZone before Start", false, func(svc *Service) error { return svc.RemoveZone("z") }},
		{"RemoveZone after Stop before Start", true, func(svc *Service) error { return svc.RemoveZone("z") }},
	} {
		t.Run(row.name, func(t *testing.T) {
			svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
			if err := svc.AddZone("z", sys); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := svc.Ingest("z", append([]Report(nil), batch...)); err != nil {
					t.Fatal(err)
				}
			}
			if row.stop {
				svc.Stop()
			}
			done := make(chan error, 1)
			go func() { done <- row.op(svc) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the zone's backlog held the call past the deadline; was a fold submitted before Start?")
			}
		})
	}
}

// TestWaitOutlastsRunningGoroutines pins Wait's contract: it returns
// only once every goroutine the service started has exited, not once
// they have been told to stop. Each half, on a fresh service, holds one
// goroutine in a gate past cancellation and requires Wait to stay
// blocked until the gate opens: (a) an executor worker inside a locate,
// (b) the checkpointer inside its final Put.
func TestWaitOutlastsRunningGoroutines(t *testing.T) {
	dep := testDeployment(t)
	t.Run("executor", func(t *testing.T) {
		sys, gm, release := newGatedSystem(t, dep, "wait-test-gated")
		defer release()
		svc := newTestService(t, Config{Window: 2, DetectThresholdDB: -1})
		if err := svc.AddZone("z", sys); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		if err := svc.Ingest("z", targetBatch(dep, geom.Point{X: 1.2, Y: 0.9})); err != nil {
			t.Fatal(err)
		}
		awaitGate(t, gm.entered, "the first locate never reached the matcher")
		cancel()
		requireWaitHeld(t, svc, release)
	})
	t.Run("checkpointer", func(t *testing.T) {
		gs := &gatedStore{Store: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
		var releaseOnce sync.Once
		release := func() { releaseOnce.Do(func() { close(gs.release) }) }
		defer release()
		svc := newTestService(t, Config{Store: gs})
		if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		// No tick falls due within the test, so the only Put is the
		// final checkpoint that cancellation triggers.
		if err := svc.StartCheckpointer(ctx, time.Hour, nil); err != nil {
			t.Fatal(err)
		}
		cancel()
		awaitGate(t, gs.entered, "the final checkpoint never reached Put")
		requireWaitHeld(t, svc, release)
	})
}

// gatedStore is a store whose first Put closes entered and then blocks
// until release is closed, so a test can hold a checkpoint write in
// flight.
type gatedStore struct {
	store.Store
	called  atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) Put(zone string, data []byte) error {
	if g.called.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return g.Store.Put(zone, data)
}

func awaitGate(t *testing.T, entered <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

// requireWaitHeld calls svc.Wait while a service goroutine is held in a
// gate: Wait must not return until release opens the gate, and must
// return soon after.
func requireWaitHeld(t *testing.T, svc *Service, release func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		svc.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned while a service goroutine was still running")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the gate opened")
	}
}

// drainWatch empties any buffered (replayed) events.
func drainWatch(ch <-chan Estimate) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
