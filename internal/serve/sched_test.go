package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/internal/testbed"
)

// TestStarvedCounter pins the starvation satellite: a zone where some
// link never reports publishes nothing (silent before this change), and
// the Starved stat is the operator-visible trace that distinguishes
// that state from a zone with no traffic at all.
func TestStarvedCounter(t *testing.T) {
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

	// Reports for link 0 only: every fold round is starved.
	for i := 0; i < 5; i++ {
		if err := svc.Ingest("z", []Report{{Link: 0, RSS: -40}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats()["z"].Starved == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := svc.Stats()["z"]
	if st.Starved == 0 {
		t.Fatalf("starved rounds not counted: %+v", st)
	}
	if st.Estimates != 0 {
		t.Fatalf("starved zone published estimates: %+v", st)
	}
	if _, ok := svc.Position("z"); ok {
		t.Fatal("starved zone has a published position")
	}

	// Once every link reports, estimates flow and Starved stops advancing.
	target := geom.Point{X: 1.2, Y: 0.9}
	for i := 0; i < 10; i++ {
		if err := svc.Ingest("z", targetBatch(dep, target)); err != nil {
			t.Fatal(err)
		}
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	before := svc.Stats()["z"].Starved
	for i := 0; i < 5; i++ {
		_ = svc.Ingest("z", targetBatch(dep, target))
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports > 10*6 })
	if after := svc.Stats()["z"].Starved; after != before {
		t.Errorf("healthy zone still counting starvation: %d -> %d", before, after)
	}
	cancel()
	svc.Wait()
}

// TestZoneCountDoesNotScaleGoroutines pins the executor-pool tentpole:
// registering hundreds of zones on a running service adds no goroutines
// — zones are state machines, and compute concurrency is the pool's
// GOMAXPROCS workers, not the zone count.
func TestZoneCountDoesNotScaleGoroutines(t *testing.T) {
	dep := testDeployment(t)
	sys := testSystem(t, dep)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	// Hundreds of zones sharing one calibrated System: safe now that the
	// read plane is an immutable Model, and the cheapest way to fan a
	// deployment wide.
	const zones = 300
	for i := 0; i < zones; i++ {
		if err := svc.AddZone(fmt.Sprintf("z%03d", i), sys); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d zones grew goroutines %d -> %d; zones must not own goroutines", zones, base, got)
	}
	// The zones still serve: sparse traffic to a few of them localizes.
	target := geom.Point{X: 1.1, Y: 0.8}
	for i := 0; i < 8; i++ {
		for _, id := range []string{"z000", "z137", "z299"} {
			if err := svc.Ingest(id, targetBatch(dep, target)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"z000", "z137", "z299"} {
		waitForEstimate(t, svc, id, func(e Estimate) bool { return e.Present })
	}
	cancel()
	svc.Wait()
}

// TestExecutorSubmitAfterClose pins the shutdown contract of the run
// queue: a submit racing close must be rejected (never queued, never
// run inline — the call sites hold the zone's schedMu, which the task
// bodies re-lock), so callers can unwind their scheduling state and
// zone lifecycle waits can never strand.
func TestExecutorSubmitAfterClose(t *testing.T) {
	e := newExecutor()
	if !e.submit(task{kind: foldTask}) {
		t.Fatal("submit on an open executor rejected")
	}
	e.close()
	if e.submit(task{kind: foldTask}) {
		t.Fatal("submit after close accepted; the workers may be gone")
	}
	// The pre-close task is still drained by a (late) worker.
	got, ok := e.next()
	if !ok || got.kind != foldTask {
		t.Fatalf("pre-close task lost: ok=%v kind=%v", ok, got.kind)
	}
	if _, ok := e.next(); ok {
		t.Fatal("rejected task appeared in the queue")
	}
}

// TestIngestDuringStartNeverStrands races Report against Start: a batch
// accepted in the handover window must still be folded — either by the
// ingest step, which arms the fold once Start has set started, or by
// Start's backlog scan — never counted into Received and then silently
// stranded.
func TestIngestDuringStartNeverStrands(t *testing.T) {
	dep := testDeployment(t)
	target := geom.Point{X: 1.2, Y: 0.9}
	for round := 0; round < 20; round++ {
		svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
		if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
			t.Fatal(err)
		}
		batch := targetBatch(dep, target)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := svc.Ingest("z", append([]Report(nil), batch...)); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}()
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// One accepted batch covers every link, so exactly one estimate
		// must eventually publish with no further traffic.
		waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports >= uint64(len(batch)) })
		cancel()
		svc.Wait()
	}
}

// withWorkers sets GOMAXPROCS, which sizes the executor pool at Start,
// to n for the rest of the test, as internal/mat's withWorkers does for
// its kernels: a zone's fold and locate tasks overlap only when a
// second worker is free to run one of them, and with one worker every
// task runs in submission order.
func withWorkers(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFoldRoundsEndAtFoldBatch pins where fold rounds end. A backlog of
// mixed-size batches, each covering every link, is queued before Start
// and folded by one worker. A round submits its locate before it
// re-arms, so with one worker each round's estimate publishes before
// the next round starts and none is coalesced away. A round drains
// whole batches until it holds foldBatch reports or the queue is
// empty, so the Reports watermarks seen on Watch follow from the batch
// sizes alone.
func TestFoldRoundsEndAtFoldBatch(t *testing.T) {
	withWorkers(t, 1)
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: -1})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ch, stopWatch, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWatch()

	// Batch sizes, grouped by the round that drains them. Each round ends
	// at the first batch that brings it to 64 (foldBatch) reports, or at
	// the empty queue; Reports is the running total at each round's end.
	sizes := [][]int{
		{6, 17, 24, 7, 38},     // 54, then 92
		{6, 60},                // 66
		{32, 32},               // exactly 64
		{8, 12, 23, 6, 10, 71}, // 59, then 130
		{64},                   // one batch of 64
		{6, 6, 9, 64},          // 21, then 85
		{6, 30, 41},            // 36, then 77
		{13, 7},                // the queue empties at 20
	}
	want := []uint64{92, 158, 222, 352, 416, 501, 578, 598}
	base := targetBatch(dep, geom.Point{X: 1.5, Y: 1.2})
	for _, round := range sizes {
		for _, size := range round {
			batch := make([]Report, size) // size >= len(base): every link reports
			for k := range batch {
				batch[k] = base[k%len(base)]
			}
			if err := svc.Ingest("z", batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Reports == want[len(want)-1] })
	cancel()
	svc.Wait()
	var got []uint64
	for e := range ch {
		if !e.Final {
			got = append(got, e.Reports)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("published Reports %v, want %v", got, want)
	}
}

// TestHotZoneFoldOverlapsLocate exercises the pipelining path: batches
// arriving while a locate is in flight coalesce into the pending slot
// rather than blocking the fold stage, and the zone keeps publishing
// (run with -race; the assertion is liveness plus monotonic freshness).
func TestHotZoneFoldOverlapsLocate(t *testing.T) {
	withWorkers(t, 2)
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
	var batches [][]Report
	for i := 0; i < 32; i++ {
		batches = append(batches, targetBatch(dep, target))
	}
	for i := 0; i < 400; i++ {
		b := append([]Report(nil), batches[i%len(batches)]...)
		for svc.Ingest("z", b) == ErrQueueFull {
			time.Sleep(100 * time.Microsecond)
		}
	}
	e := waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	st := svc.Stats()["z"]
	if st.Batches == 0 || st.Estimates == 0 {
		t.Fatalf("hot zone stats: %+v", st)
	}
	// Coalescing may skip intermediate rounds but never reorders: the
	// published estimate's report watermark only moves forward.
	last := e.Reports
	for i := 0; i < 50; i++ {
		b := append([]Report(nil), batches[i%len(batches)]...)
		for svc.Ingest("z", b) == ErrQueueFull {
			time.Sleep(100 * time.Microsecond)
		}
		if cur, ok := svc.Position("z"); ok {
			if cur.Reports < last {
				t.Fatalf("estimate went backwards: %d after %d", cur.Reports, last)
			}
			last = cur.Reports
		}
	}
	cancel()
	svc.Wait()
}

// gatedMatcher is a nearest-neighbour matcher whose first Match call
// closes entered and then blocks until release is closed, so a test can
// hold a zone's locate stage in flight.
type gatedMatcher struct {
	called  atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedMatcher) Match(m *core.Model, y []float64, sc *core.Scratch) (core.Location, error) {
	if g.called.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return core.NNMatcher{}.Match(m, y, sc)
}

// newGatedSystem builds a System over dep that localizes with a fresh
// gatedMatcher registered under name. release opens the gate and may be
// called more than once.
func newGatedSystem(t *testing.T, dep *testbed.Deployment, name string) (sys *core.System, gm *gatedMatcher, release func()) {
	t.Helper()
	layout, err := core.NewLayout(dep.Channel.Links(), dep.Grid, dep.Config.RF.MaskExcessM())
	if err != nil {
		t.Fatal(err)
	}
	gm = &gatedMatcher{entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release = func() { releaseOnce.Do(func() { close(gm.release) }) }
	if err := core.RegisterMatcher(name, func() core.Matcher { return gm }); err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultSystemOptions()
	opts.MatcherName = name
	survey, _ := dep.Survey(0)
	sys, err = core.NewSystem(layout, survey, dep.VacantCapture(0, 50), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gm, release
}

// TestPendingSlotKeepsFreshest pins freshest-wins coalescing
// deterministically: while the zone's first locate is held in its
// matcher, two more fold rounds land in the one pending slot, the
// later one replacing the earlier, so the zone publishes the held
// estimate and then only the freshest.
func TestPendingSlotKeepsFreshest(t *testing.T) {
	withWorkers(t, 2)
	dep := testDeployment(t)
	sys, gm, release := newGatedSystem(t, dep, "sched-test-gated")
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: -1})
	if err := svc.AddZone("z", sys); err != nil {
		t.Fatal(err)
	}
	ch, stopWatch, err := svc.Watch("z")
	if err != nil {
		t.Fatal(err)
	}
	defer stopWatch()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		release()
		cancel()
		svc.Wait()
	}()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.mu.RLock()
	z := svc.zones["z"]
	svc.mu.RUnlock()

	batch := targetBatch(dep, geom.Point{X: 1.5, Y: 1.2})
	n := uint64(len(batch))
	ingest := func() {
		t.Helper()
		if err := svc.Ingest("z", append([]Report(nil), batch...)); err != nil {
			t.Fatal(err)
		}
	}
	waitPending := func(reports uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			z.schedMu.Lock()
			got, has := z.pend.e.Reports, z.pend.z != nil
			z.schedMu.Unlock()
			if has && got == reports {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pending slot holds %d reports (occupied %v), want %d", got, has, reports)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ingest() // batch A: its locate blocks in the matcher
	select {
	case <-gm.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first locate never reached the matcher")
	}
	ingest() // batch B: coalesced into the pending slot
	waitPending(2 * n)
	ingest() // batch C: replaces B in the pending slot
	waitPending(3 * n)
	release()

	var got []Estimate
	for len(got) < 2 {
		select {
		case e := <-ch:
			got = append(got, e)
		case <-time.After(5 * time.Second):
			t.Fatalf("published %d estimates before the deadline, want 2", len(got))
		}
	}
	if got[0].Reports != n || got[1].Reports != 3*n || got[1].Seq <= got[0].Seq {
		t.Errorf("published (Reports %d, Seq %d) then (Reports %d, Seq %d); want Reports %d then %d with increasing Seq",
			got[0].Reports, got[0].Seq, got[1].Reports, got[1].Seq, n, 3*n)
	}
	// Waiting out the executor settles the counters, which the locate
	// stage bumps after publishing.
	cancel()
	svc.Wait()
	if st := svc.Stats()["z"]; st.Batches != 3 || st.Estimates != 2 {
		t.Errorf("Batches %d, Estimates %d; want 3 and 2", st.Batches, st.Estimates)
	}
}
