// Command tafloc-sim runs one configurable end-to-end scenario: deploy a
// testbed, survey at day 0, drift to a chosen age, optionally run the
// TafLoc low-cost update, and evaluate localization on a batch of random
// targets.
//
// Usage:
//
//	tafloc-sim -days 90 -update -targets 40
//	tafloc-sim -edge 12 -days 30 -seed 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"tafloc"
)

func main() {
	log.SetFlags(0)
	edge := flag.Float64("edge", 0, "square area edge in metres (0 = paper room 7.2x4.8)")
	days := flag.Float64("days", 90, "age of the environment in days")
	update := flag.Bool("update", true, "run the TafLoc low-cost update at the given age")
	targets := flag.Int("targets", 40, "number of random evaluation targets")
	window := flag.Int("window", 10, "live samples averaged per localization")
	seed := flag.Uint64("seed", 1, "channel seed (selects the random universe)")
	matcher := flag.String("matcher", "wknn",
		fmt.Sprintf("localization matcher %v", tafloc.MatcherNames()))
	flag.Parse()

	cfg := tafloc.PaperConfig()
	if *edge > 0 {
		cfg = tafloc.SquareConfig(*edge)
	}
	cfg.RF.Seed = *seed
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d links, %d cells, channel seed %d\n",
		dep.Channel.M(), dep.Grid.Cells(), *seed)

	sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher(*matcher))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day-0 survey: %.2f h, %d reference locations (matcher %s)\n",
		dep.FullSurveyCost().Hours(), len(sys.References()), *matcher)

	if *update {
		refCols, cost := dep.SurveyCells(sys.References(), *days)
		rec, err := sys.UpdateContext(context.Background(), refCols, dep.VacantCapture(*days, 100))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("update at day %.0f: %.2f h, rank %d, %d iterations\n",
			*days, cost.Hours(), rec.Rank, rec.Iterations)
	} else {
		fmt.Printf("no update: localizing with the day-0 database at day %.0f\n", *days)
	}

	// Evaluate on random targets drawn from a deterministic stream.
	r := newPointStream(*seed * 31)
	var errs []float64
	for k := 0; k < *targets; k++ {
		p := r.next(dep.Grid.Width, dep.Grid.Height)
		y := make([]float64, dep.Channel.M())
		for s := 0; s < *window; s++ {
			one := dep.Channel.MeasureLive(p, *days)
			for i := range y {
				y[i] += one[i] / float64(*window)
			}
		}
		loc, err := sys.Locate(y)
		if err != nil {
			log.Fatal(err)
		}
		errs = append(errs, loc.Point.Dist(p))
	}
	s := tafloc.Summarize(errs)
	fmt.Printf("\nlocalization over %d targets: median %.2f m, mean %.2f m, p90 %.2f m, max %.2f m\n",
		s.Count, s.Median, s.Mean, s.P90, s.Max)
}

// pointStream is a tiny deterministic generator for target positions
// (xorshift64*), independent of the channel's random universe.
type pointStream struct{ s uint64 }

func newPointStream(seed uint64) *pointStream {
	if seed == 0 {
		seed = 1
	}
	return &pointStream{s: seed}
}

func (p *pointStream) float() float64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return float64((p.s*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

func (p *pointStream) next(w, h float64) tafloc.Point {
	return tafloc.Point{
		X: 0.3 + p.float()*(w-0.6),
		Y: 0.3 + p.float()*(h-0.6),
	}
}
