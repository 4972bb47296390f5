// Command elderlycare simulates the paper's motivating application: a
// device-free resident tracked in a monitored room over three months.
// The environment drifts continuously; a TafLoc low-cost update runs
// every two weeks, while a comparison system keeps its day-0 database.
//
// Both systems run as zones of one multi-zone service ("maintained" and
// "neglected"), and the whole experiment is driven through the typed
// client SDK over a real HTTP connection: the resident's RSS reports
// flow in through a client.Reporter (one persistent NDJSON ingest
// stream per zone, auto-batched) and the weekly tracking error is read
// back from cli.Position — showing how the periodic cheap updates hold
// accuracy while the stale database decays.
//
// Run with -short for a reduced deployment and fewer weeks (CI mode).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"time"

	"tafloc"
	"tafloc/client"
)

func main() {
	short := flag.Bool("short", false, "reduced deployment and fewer weeks")
	flag.Parse()

	cfg := tafloc.PaperConfig()
	weeks := 12
	const win = 4
	if *short {
		cfg.SamplesPerCell = 5
		weeks = 4
	}
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Two independent systems built from the same day-0 survey: one gets
	// biweekly TafLoc updates, the other never updates.
	maintained, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher("wknn"))
	if err != nil {
		log.Fatal(err)
	}
	neglected, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher("wknn"))
	if err != nil {
		log.Fatal(err)
	}

	// Serve both as zones and talk to them only through the client SDK.
	svc, err := tafloc.NewService(
		tafloc.WithWindow(win),
		tafloc.WithDetectThreshold(0.05),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.AddZone("maintained", maintained); err != nil {
		log.Fatal(err)
	}
	if err := svc.AddZone("neglected", neglected); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		log.Fatal(err)
	}
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

	// One persistent ingest stream per zone; the reporter batches the
	// win samples of each waypoint into single NDJSON lines.
	zones := []string{"maintained", "neglected"}
	reporters := map[string]*client.Reporter{}
	for _, zone := range zones {
		rep, err := cli.NewReporter(ctx, zone)
		if err != nil {
			log.Fatal(err)
		}
		defer rep.Close()
		reporters[zone] = rep
	}

	totalCost := 0.0

	fmt.Println("week  maintained_err_m  neglected_err_m  update")
	for week := 1; week <= weeks; week++ {
		days := float64(week * 7)

		// Biweekly low-cost refresh of the maintained zone. The update
		// runs server-side against the live System while the zone keeps
		// serving; the context would let us abort a long reconstruction.
		updated := ""
		if week%2 == 0 {
			sys, _ := svc.System("maintained")
			refCols, cost := dep.SurveyCells(sys.References(), days)
			if _, err := sys.UpdateContext(ctx, refCols, dep.VacantCapture(days, 100)); err != nil {
				log.Fatal(err)
			}
			totalCost += cost.Hours()
			updated = fmt.Sprintf("yes (%.2f h)", cost.Hours())
		}

		// The resident walks a fixed daily path; track the waypoints
		// through both zones via the client.
		var errMaintained, errNeglected float64
		steps := 20
		if *short {
			steps = 6
		}
		for k := 0; k < steps; k++ {
			p := walkPath(float64(k) / float64(steps))
			for s := 0; s < win; s++ {
				y := dep.Channel.MeasureLive(p, days)
				batch := make([]client.Report, len(y))
				for i, v := range y {
					batch[i] = client.Report{Link: i, RSS: v}
				}
				for _, zone := range zones {
					if err := reporters[zone].Send(batch...); err != nil {
						log.Fatal(err)
					}
				}
			}
			// Flush forces the waypoint's buffered samples out and waits
			// for the server's acks, so Stats().Accepted is exact and the
			// settle check below cannot race the stream.
			var errs [2]float64
			for zi, zone := range zones {
				rep := reporters[zone]
				if err := rep.Flush(ctx); err != nil {
					log.Fatal(err)
				}
				est, err := settledPosition(ctx, cli, zone, rep.Stats().Accepted)
				if err != nil {
					log.Fatal(err)
				}
				errs[zi] = est.Point.Dist(p) / float64(steps)
			}
			errMaintained += errs[0]
			errNeglected += errs[1]
		}
		fmt.Printf("%4d  %16.2f  %15.2f  %s\n", week, errMaintained, errNeglected, updated)
	}
	full := dep.FullSurveyCost().Hours()
	fmt.Printf("\ntotal maintenance cost: %.2f hours over %d weeks "+
		"(full re-surveys would have cost %.2f hours)\n", totalCost, weeks, float64(weeks/2)*full)
	cancel()
	svc.Wait()
}

// settledPosition polls the zone until its published estimate reflects
// every report sent so far, so consecutive waypoints do not bleed into
// each other.
func settledPosition(ctx context.Context, cli *client.Client, zone string, reports uint64) (client.Estimate, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		est, err := cli.Position(ctx, zone)
		if err == nil && est.Reports >= reports {
			return est, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				return est, fmt.Errorf("zone %s: estimate stuck at %d of %d reports", zone, est.Reports, reports)
			}
			return est, err
		}
		time.Sleep(time.Millisecond)
	}
}

// walkPath traces a loop through the room parameterized by t in [0,1).
func walkPath(t float64) tafloc.Point {
	angle := 2 * math.Pi * t
	return tafloc.Point{
		X: 3.6 + 2.4*math.Cos(angle),
		Y: 2.4 + 1.5*math.Sin(angle),
	}
}
