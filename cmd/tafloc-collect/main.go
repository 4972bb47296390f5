// Command tafloc-collect runs the measurement-collection pipeline over
// real sockets: it starts a collector, launches one simulated link agent
// per link, then drives a vacant capture and a survey pass over the
// control plane and prints the aggregated results.
//
// Usage:
//
//	tafloc-collect                       # loopback, default deployment
//	tafloc-collect -cell 40 -samples 50  # survey cell 40 with 50 samples
//	tafloc-collect -rate 100             # 100 reports/s per link
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"tafloc"
)

func main() {
	log.SetFlags(0)
	cell := flag.Int("cell", 40, "grid cell to survey")
	samples := flag.Int("samples", 50, "samples per link per pass")
	rate := flag.Float64("rate", 200, "reports per second per link")
	dataAddr := flag.String("data", "127.0.0.1:0", "UDP data-plane bind address")
	ctrlAddr := flag.String("ctrl", "127.0.0.1:0", "TCP control-plane bind address")
	flag.Parse()

	dep, err := tafloc.NewDeployment(tafloc.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	if *cell < 0 || *cell >= dep.Grid.Cells() {
		log.Fatalf("cell %d out of range [0,%d)", *cell, dep.Grid.Cells())
	}

	col, err := tafloc.NewCollector(dep.Channel.M())
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	da, ca, err := col.Start(ctx, *dataAddr, *ctrlAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector up: data %s, control %s\n", da, ca)

	// Shared target state: agents report vacant until the survey starts.
	var mu sync.Mutex
	var surveying bool
	target := dep.Grid.Center(*cell)
	fleet, err := tafloc.NewFleet(dep.Channel, da, tafloc.AgentConfig{
		Interval: time.Duration(float64(time.Second) / *rate),
		Target: func() (tafloc.Point, bool) {
			mu.Lock()
			defer mu.Unlock()
			return target, surveying
		},
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

	orch, err := tafloc.DialOrchestrator(ca)
	if err != nil {
		log.Fatal(err)
	}
	defer orch.Close()

	// Pass 1: vacant capture.
	if err := orch.StartVacant(*samples); err != nil {
		log.Fatal(err)
	}
	if !col.Store.WaitForCounts(*samples, 30*time.Second) {
		log.Fatal("timed out collecting vacant samples")
	}
	vacMeans, vacCounts, _ := col.Store.EndPass()
	fmt.Printf("\nvacant capture (%d+ samples per link):\n", *samples)
	for i, v := range vacMeans {
		fmt.Printf("  link %2d: %7.2f dBm (%d samples)\n", i, v, vacCounts[i])
	}

	// Pass 2: survey the requested cell ("surveyor walks to the cell").
	mu.Lock()
	surveying = true
	mu.Unlock()
	if err := orch.StartSurvey(*cell, *samples); err != nil {
		log.Fatal(err)
	}
	if !col.Store.WaitForCounts(*samples, 30*time.Second) {
		log.Fatal("timed out collecting survey samples")
	}
	surMeans, _, gotCell := col.Store.EndPass()
	fmt.Printf("\nsurvey pass for cell %d at %v:\n", gotCell, target)
	for i, v := range surMeans {
		fmt.Printf("  link %2d: %7.2f dBm (delta %+.2f dB)\n", i, v, v-vacMeans[i])
	}

	cancel()
	wg.Wait()
	st := col.Store.Stats()
	fmt.Printf("\nstats: %d frames received, %d dropped, %d survey passes, %d vacant passes\n",
		st.FramesReceived, st.FramesDropped, st.SurveyPasses, st.VacantPasses)
}
