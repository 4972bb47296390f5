// Command intruder runs the full networked pipeline on localhost: a
// collector listens on UDP/TCP, simulated link agents stream RSS report
// frames, the collector's batch sink feeds the multi-zone service
// through the shared Ingestor path, and the service is watched through
// the typed client SDK — alerts arrive as streamed position estimates
// over the /v2 SSE watch, with the smoothed trajectory (position,
// velocity) read back from /v2/zones/{id}/track: the paper's
// intruder-detection motivation end to end. When the demo window
// closes, the zone is removed over the API and the watch stream ends
// with its terminal event.
//
// Run with -short for a faster, smaller demo (CI mode).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"tafloc"
	"tafloc/client"
)

func main() {
	short := flag.Bool("short", false, "reduced deployment and run time")
	flag.Parse()

	cfg := tafloc.PaperConfig()
	runFor := 9 * time.Second
	enterAt := 2.0
	if *short {
		cfg.SamplesPerCell = 5
		runFor = 4 * time.Second
		enterAt = 1.0
	}
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher("wknn"))
	if err != nil {
		log.Fatal(err)
	}

	// The serving layer: one zone, fed by the collector sink below,
	// gated by the "mad" presence detector.
	svc, err := tafloc.NewService(
		tafloc.WithWindow(8),
		tafloc.WithDetectThreshold(0.8),
		tafloc.WithDetector("mad"),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.AddZone("room", sys); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		log.Fatal(err)
	}

	// Start the collector on loopback and forward every decoded datagram
	// batch into the service's shared ingest path.
	col, err := tafloc.NewCollector(dep.Channel.M())
	if err != nil {
		log.Fatal(err)
	}
	col.SetBatchSink(tafloc.IngestSink(svc, "room"))
	dataAddr, ctrlAddr, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector: data %s, control %s\n", dataAddr, ctrlAddr)

	// The intruder enters the room at enterAt seconds and walks
	// diagonally. The target function is shared by all agents, so every
	// link observes a consistent position.
	start := time.Now()
	var mu sync.Mutex
	intruderAt := func() (tafloc.Point, bool) {
		mu.Lock()
		defer mu.Unlock()
		elapsed := time.Since(start).Seconds()
		if elapsed < enterAt {
			return tafloc.Point{}, false // room still empty
		}
		frac := (elapsed - enterAt) / 6
		if frac > 1 {
			frac = 1
		}
		return tafloc.Point{X: 0.9 + frac*5.4, Y: 0.9 + frac*3.0}, true
	}

	// Agents stream at 50 Hz (accelerated from the paper's 1 Hz so the
	// demo finishes quickly).
	fleet, err := tafloc.NewFleet(dep.Channel, dataAddr, tafloc.AgentConfig{
		Interval: 20 * time.Millisecond,
		Target:   intruderAt,
	})
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fleet.Run(ctx)
	}()

	// Health check over the collector's control plane.
	orch, err := tafloc.DialOrchestrator(ctrlAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer orch.Close()
	if err := orch.Snapshot(); err != nil {
		log.Fatal(err)
	}

	// Serve the HTTP surface and watch the zone through the client SDK.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	cli, err := client.Dial(ctx, "http://"+ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	ch, err := cli.Watch(ctx, "room")
	if err != nil {
		log.Fatal(err)
	}

	// Close the demo window by removing the zone over the API: the watch
	// stream then delivers its terminal event and ends.
	go func() {
		time.Sleep(runFor)
		if err := cli.RemoveZone(context.Background(), "room"); err != nil {
			log.Printf("remove zone: %v", err)
		}
	}()

	fmt.Println("monitoring (alerts stream over /v2 watch)...")
	alerts := 0
	var lastPrint time.Time
	for est := range ch {
		if est.Final {
			fmt.Println("zone removed; watch stream terminated")
			break
		}
		if !est.Present {
			continue
		}
		alerts++
		// The watch delivers every published estimate; print at most 4/s.
		if time.Since(lastPrint) < 250*time.Millisecond {
			continue
		}
		lastPrint = time.Now()
		truth, _ := intruderAt()
		fmt.Printf("ALERT t=%4.1fs deviation %.2f dB -> intruder near %v (truth %v, err %.2f m)\n",
			time.Since(start).Seconds(), est.DeviationDB, est.Point, truth, est.Point.Dist(truth))
		// The smoothed trajectory adds what a raw estimate cannot: where
		// the intruder is heading and how fast.
		if pts, err := cli.Track(ctx, "room", 1); err == nil && len(pts) == 1 {
			tp := pts[0]
			speed := math.Hypot(tp.Velocity.X, tp.Velocity.Y)
			fmt.Printf("      track: smoothed %v moving %.2f m/s (±%.2f m)\n",
				tp.Point, speed, tp.PosStd)
		}
	}
	cancel()
	wg.Wait()
	stats := col.Store.Stats()
	fmt.Printf("\ndone: %d alerts, %d frames received, %d dropped\n",
		alerts, stats.FramesReceived, stats.FramesDropped)
	svc.Wait()
}
