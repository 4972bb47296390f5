package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"tafloc"
	"tafloc/internal/serve"
	"tafloc/internal/store"
	"tafloc/internal/testbed"
)

// fleet-cold: 1000 small zones (3.6 m x 2.4 m, 6 links) behind a
// 64-Model hot cap over the in-memory snapshot store. Two in-process
// producers call Service.Ingest at a fixed aggregate Poisson rate,
// choosing zones from a seeded Zipf popularity, so some batches find
// their zone hot and some pay a rehydrate. The Mem store keeps disk
// fsync noise out of the residency numbers.
const (
	fleetZones = 1000
	fleetHot   = 64
	fleetRooms = 8      // distinct rooms the zones are built from
	fleetRate  = 4000.0 // batches per second, both producers together
	fleetZipf  = 1.1    // popularity exponent
	fleetRing  = 1024   // distinct sweeps per room walk
	fleetStep  = 0.02   // metres per sweep
	fleetDetDB = 0.25   // presence threshold for 6-link rooms
	fleetQueue = 1024   // batches per zone; absorbs a ~1.4 s stall of the most popular zone
	producers  = 2
)

func fleetConfig(room int) testbed.Config {
	cfg := testbed.PaperConfig()
	cfg.RoomW, cfg.RoomH = 3.6, 2.4
	cfg.Links = 6
	cfg.SamplesPerCell = 5
	cfg.RF.Seed = uint64(101 + room)
	return cfg
}

func fleetIDs() []string {
	ids := make([]string, fleetZones)
	for z := range ids {
		ids[z] = fmt.Sprintf("zone-%04d", z)
	}
	return ids
}

type fleetEnv struct {
	svc    *serve.Service
	cancel context.CancelFunc
}

func (e *fleetEnv) close() {
	e.cancel()
	e.svc.Stop()
	e.svc.Wait()
}

func setupFleet(tr *tracer, ids []string) (*fleetEnv, error) {
	matcher, detector := matcherAndDetector(tr)
	var st store.Store = store.NewMem()
	if tr != nil {
		st = timedStore{inner: st, t: tr}
	}
	// The service configuration of BenchmarkManyZonesColdStart: a short
	// live window and no per-zone history, so the residency tier, not
	// the history rings of a thousand zones, sets the heap and the GC.
	svc, err := serve.NewService(serve.Config{
		QueueDepth:        fleetQueue,
		Window:            4,
		DetectThresholdDB: fleetDetDB,
		Detector:          detector,
		History:           -1,
		MaxHotZones:       fleetHot,
		Store:             st,
	})
	if err != nil {
		return nil, err
	}
	deps := make([]*testbed.Deployment, fleetRooms)
	for r := range deps {
		if deps[r], err = testbed.New(fleetConfig(r)); err != nil {
			return nil, err
		}
	}
	for z, id := range ids {
		// Every zone is surveyed and calibrated on its own, so each holds
		// a distinct fingerprint database.
		sys, err := tafloc.OpenDeployment(deps[z%fleetRooms], tafloc.WithMatcher(matcher))
		if err != nil {
			return nil, err
		}
		if err := svc.AddZone(id, sys); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := svc.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	return &fleetEnv{svc: svc, cancel: cancel}, nil
}

// arrival is one scheduled batch: when it falls due and for which zone.
type arrival struct {
	due  time.Duration
	zone int
}

func runFleet(o options, tr *tracer) (*result, error) {
	rg := newRig(o, tr)
	ids := fleetIDs()
	if tr != nil {
		tr.setZones(ids)
	}
	paths := make([]path, fleetRooms)
	for r := range paths {
		dep, err := testbed.New(fleetConfig(r))
		if err != nil {
			return nil, err
		}
		paths[r] = newPath(dep.Channel, newRand(o.seed, uint64(10+r)), fleetStep, fleetRing, 0)
	}
	rng := newRand(o.seed, 2)
	// Popularity ranks map to zones through a seeded permutation, so the
	// hot set differs between seeds.
	perm := rng.Perm(fleetZones)
	zipf := rand.NewZipf(rng, fleetZipf, 1, fleetZones-1)
	start := make([]int, fleetZones) // each zone's starting point on its room's walk
	for z := range start {
		start[z] = rng.IntN(fleetRing)
	}
	// Each zone has one producer, so its batches reach Ingest in
	// schedule order; alternating popularity ranks between the producers
	// splits the load evenly whatever the seed.
	var sched [producers][]arrival
	for _, d := range poisson(rng, fleetRate, o.warmup+o.window) {
		rank := zipf.Uint64()
		p := rank % producers
		sched[p] = append(sched[p], arrival{due: d, zone: perm[rank]})
	}
	m := fleetConfig(0).Links
	rg.rate, rg.batchLen = fleetRate, m

	su := setups[*fleetEnv]{rg: rg, k: 4, setup: func() (*fleetEnv, error) { return setupFleet(tr, ids) }, teardown: (*fleetEnv).close}
	env, err := su.before()
	if err != nil {
		return nil, err
	}
	defer env.close()
	rg.svc = env.svc
	if tr != nil {
		sys, ok := env.svc.System(ids[perm[0]])
		if !ok {
			return nil, fmt.Errorf("zone %s did not rehydrate", ids[perm[0]])
		}
		rg.layer["core.locate_isolated_us_p50"] = isolatedLocate(sys.Model(), paths[perm[0]%fleetRooms].ys)
	}

	rg.zones = make([]*zoneLog, fleetZones)
	done := make(chan struct{})
	var consumers sync.WaitGroup
	for z, id := range ids {
		zl := &zoneLog{}
		rg.zones[z] = zl
		ch, stopWatch, err := env.svc.Watch(id)
		if err != nil {
			return nil, err
		}
		defer stopWatch()
		startWG(&consumers, func() { consume(ch, done, &zl.receipts) })
	}

	ing := ingestor(env.svc, tr)
	type tally struct {
		offered, accepted int64
		fails             [4]int64
		lag               []time.Duration
	}
	var tallies [producers]tally
	t0 := time.Now().Add(20 * time.Millisecond)
	var gen sync.WaitGroup
	for p := 0; p < producers; p++ {
		startWG(&gen, func() {
			ty := &tallies[p]
			sent := make([]int, fleetZones)
			cum := make([]uint64, fleetZones)
			due := make([]time.Duration, len(sched[p]))
			for i, a := range sched[p] {
				due[i] = a.due
			}
			ty.lag = pace(t0, due, 0, nil, func(i int, at time.Time) {
				z := sched[p][i].zone
				path := &paths[z%fleetRooms]
				k := (start[z] + sent[z]) % fleetRing
				sent[z]++
				// The service takes ownership of an accepted batch.
				batch := make([]serve.Report, m)
				for l, v := range path.ys[k] {
					batch[l] = serve.Report{Link: l, RSS: v}
				}
				ty.offered += int64(m)
				if oc := classify(ing.Ingest(ids[z], batch)); oc != accepted {
					ty.fails[oc] += int64(m)
				} else {
					ty.accepted += int64(m)
					cum[z] += uint64(m)
				}
				rg.zones[z].offer(at, cum[z], path.pos[k])
			})
		})
	}
	rg.measure(t0)
	gen.Wait()
	rg.settle()
	close(done)
	consumers.Wait()
	env.close()
	if err := su.after(); err != nil {
		return nil, err
	}

	for _, ty := range tallies {
		rg.offered += ty.offered
		rg.accepted += ty.accepted
		for oc := shed; oc <= rehydrateFailed; oc++ {
			rg.fail(oc.String(), int(ty.fails[oc]))
		}
		rg.lag = append(rg.lag, ty.lag...)
	}
	return rg.finish(fleetBand), nil
}
