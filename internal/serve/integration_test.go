package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"tafloc/internal/collector"
	"tafloc/internal/geom"
)

// TestCollectorToService wires the full ingest path over real sockets:
// a simulated link-agent fleet streams UDP frames to a collector whose
// batch sink (IngestSink) forwards every kept frame into the multi-zone
// service, which must converge to a present estimate near the target.
func TestCollectorToService(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 4, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}

	col, err := collector.New(dep.Channel.M(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	col.SetBatchSink(IngestSink(svc, "z"))
	dataAddr, _, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	target := geom.Point{X: 1.5, Y: 1.2}
	fleet, err := collector.NewFleet(dep.Channel, dataAddr, collector.AgentConfig{
		Interval: time.Millisecond,
		Target:   func() (geom.Point, bool) { return target, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.Run(ctx)
	}()

	e := waitForEstimate(t, svc, "z", func(e Estimate) bool { return e.Present })
	if d := e.Point.Dist(target); d > 2.0 {
		t.Errorf("localization error %.2f m via collector path (target %v, got %v)", d, target, e.Point)
	}
	cancel()
	wg.Wait()
	col.Wait()
	svc.Wait()
}
