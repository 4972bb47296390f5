package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/track"
	"tafloc/taflocerr"
)

// TestRing pins the ring buffer's FIFO-with-eviction semantics.
func TestRing(t *testing.T) {
	r := newRing[int](3)
	if got := r.last(0); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.push(i)
	}
	if got := r.last(0); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("after 5 pushes: %v, want [3 4 5]", got)
	}
	if got := r.last(2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("last(2): %v, want [4 5]", got)
	}
	if got := r.last(10); len(got) != 3 {
		t.Errorf("last(10): %v", got)
	}
}

// feedZone drives reports into a zone until it has published at least
// minEstimates estimates.
func feedZone(t *testing.T, svc *Service, id string, batches [][]Report, minEstimates int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for {
		if st := svc.Stats()[id]; st.Estimates >= uint64(minEstimates) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("zone %s: only %d estimates before deadline", id, svc.Stats()[id].Estimates)
		}
		batch := append([]Report(nil), batches[i%len(batches)]...)
		_ = svc.Ingest(id, batch)
		i++
		time.Sleep(time.Millisecond)
	}
}

// TestTrackMatchesFilterExactly is the acceptance pin for the
// trajectory API: the smoothed track served by Service.Track must be
// bit-identical to feeding the zone's raw published history through a
// track.Filter directly, applying the documented dt rule (first fix
// initializes with any dt; later fixes use wall-clock deltas floored at
// track.MinDT).
func TestTrackMatchesFilterExactly(t *testing.T) {
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

	// Pre-sample a short walk (the channel sampler is not
	// concurrency-safe) and feed it until enough estimates published.
	var batches [][]Report
	for i := 0; i < 40; i++ {
		p := geom.Point{X: 0.6 + 0.05*float64(i), Y: 0.9 + 0.03*float64(i)}
		batches = append(batches, targetBatch(dep, p))
	}
	feedZone(t, svc, "z", batches, 12)
	cancel()
	svc.Wait()

	hist, err := svc.History("z", 0)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := svc.Track("z", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 || len(pts) == 0 {
		t.Fatalf("history %d, track %d — nothing recorded", len(hist), len(pts))
	}

	// Replay the raw history through a fresh filter with the same rule.
	f, err := track.NewFilter(track.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var last time.Time
	first := true
	i := 0
	for _, e := range hist {
		if !e.Present || e.Cell < 0 {
			continue
		}
		var st track.State
		var accepted bool
		if first {
			st, accepted, err = f.Observe(e.Point, 1)
			first = false
		} else {
			dt := e.Time.Sub(last).Seconds()
			if dt < track.MinDT {
				dt = track.MinDT
			}
			st, accepted, err = f.Observe(e.Point, dt)
		}
		if err != nil {
			t.Fatal(err)
		}
		last = e.Time
		if i >= len(pts) {
			t.Fatalf("history has more present fixes than track points (%d)", len(pts))
		}
		tp := pts[i]
		if tp.Seq != e.Seq || tp.Raw != e.Point || !tp.Time.Equal(e.Time) {
			t.Fatalf("track point %d misaligned: %+v vs estimate %+v", i, tp, e)
		}
		// Bit-identical: direct float equality, no tolerance.
		if tp.Point != st.Position || tp.Velocity != st.Velocity || tp.PosStd != st.PosStd || tp.Accepted != accepted {
			t.Fatalf("track point %d diverges from direct filter:\n served %+v\n direct pos=%v vel=%v std=%v acc=%v",
				i, tp, st.Position, st.Velocity, st.PosStd, accepted)
		}
		i++
	}
	if i != len(pts) {
		t.Errorf("replay produced %d points, served %d", i, len(pts))
	}
}

// TestTrackHistoryDisabled: a service built with negative history
// serves neither route and says so with the taxonomy.
func TestTrackHistoryDisabled(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{History: -1})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Track("z", 0); !errors.Is(err, taflocerr.ErrUnsupported) {
		t.Errorf("Track on disabled history: %v", err)
	}
	if _, err := svc.History("z", 0); !errors.Is(err, taflocerr.ErrUnsupported) {
		t.Errorf("History on disabled history: %v", err)
	}
	if _, err := svc.Track("nope", 0); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("Track on unknown zone: %v", err)
	}
}

// TestTrackSurvivesUpdateZone: swapping a zone's System keeps its
// trajectory state, like the counters.
func TestTrackSurvivesUpdateZone(t *testing.T) {
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
	before, err := svc.Track("z", 0)
	if err != nil || len(before) == 0 {
		t.Fatalf("track before swap: %d points, %v", len(before), err)
	}

	if err := svc.UpdateZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Track("z", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) < len(before) {
		t.Errorf("track shrank across UpdateZone: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("track point %d changed across swap", i)
			break
		}
	}
}
