package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"tafloc"
	"tafloc/internal/collector"
	"tafloc/internal/core"
	"tafloc/internal/serve"
	"tafloc/internal/testbed"
	"tafloc/internal/wire"
)

// refresh-udp: the walk-http room fed over UDP. One generator goroutine
// sends wire.EncodeBatch datagrams (one sweep each) to a
// collector.Collector wired through serve.IngestSink; the other
// re-surveys the reference cells and a vacant capture at a drifted day
// and calls System.UpdateContext, the paper's time-adaptive step, back
// to back. Model swaps and internal/mat-heavy reconstruction (writes) run
// beside lock-free locates (reads) through the whole window, so every
// second of it sees the same contention. The report rate is moderate and
// does not saturate the zone. A stalled process must not lose reports:
// the deep queue absorbs the backlog, and the generator drains it at a
// rate the collector's socket buffer and read loop keep up with.
const (
	refreshRate    = 2000.0 // sweeps per second
	refreshCatchUp = 8000.0 // datagrams per second while behind schedule
	refreshQueue   = 4096   // batches; absorbs a ~2 s stall
	refreshDays    = 45.0   // age of the environment the walker is sensed in
)

// sinkLog records what the collector's batch sink handed to the service,
// one entry per datagram. It runs on the collector's UDP read loop: one
// goroutine, read only after the collector has stopped.
type sinkLog struct {
	ing      serve.Ingestor
	last     error // result of the sink's most recent Ingest call
	seq      []uint32
	frames   []int
	outcomes []outcome
	transit  []float64 // frame timestamp → sink entry, µs (traced window)
	sink     []float64 // time inside the sink, µs (traced window)
}

// Ingest is the Ingestor serve.IngestSink calls; it keeps the result the
// sink itself drops.
func (s *sinkLog) Ingest(zone string, reports []serve.Report) error {
	s.last = s.ing.Ingest(zone, reports)
	return s.last
}

type refreshEnv struct {
	dep    *testbed.Deployment
	sys    *core.System
	svc    *serve.Service
	col    *collector.Collector
	data   string
	log    *sinkLog
	cancel context.CancelFunc
}

func (e *refreshEnv) close() {
	e.cancel()
	e.col.Wait()
	e.svc.Stop()
	e.svc.Wait()
}

func setupRefresh(tr *tracer) (*refreshEnv, error) {
	matcher, detector := matcherAndDetector(tr)
	dep, err := testbed.New(walkConfig())
	if err != nil {
		return nil, err
	}
	sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher(matcher))
	if err != nil {
		return nil, err
	}
	svc, err := serve.NewService(serve.Config{QueueDepth: refreshQueue, Detector: detector})
	if err != nil {
		return nil, err
	}
	if err := svc.AddZone(zoneID, sys); err != nil {
		return nil, err
	}
	col, err := collector.New(dep.Channel.M(), 0, nil)
	if err != nil {
		return nil, err
	}
	sl := &sinkLog{ing: ingestor(svc, tr)}
	ingest := serve.IngestSink(sl, zoneID)
	col.SetBatchSink(func(frames []wire.RSSReport) {
		entry := time.Now()
		seq, stamp, n := frames[0].Seq, frames[0].Time, len(frames)
		ingest(frames)
		if recording() != nil {
			sl.transit = append(sl.transit, float64(entry.Sub(stamp).Nanoseconds())/1e3)
			sl.sink = append(sl.sink, float64(time.Since(entry).Nanoseconds())/1e3)
		}
		sl.seq = append(sl.seq, seq)
		sl.frames = append(sl.frames, n)
		sl.outcomes = append(sl.outcomes, classify(sl.last))
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := svc.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	data, _, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		cancel()
		svc.Wait()
		return nil, err
	}
	return &refreshEnv{dep: dep, sys: sys, svc: svc, col: col, data: data, log: sl, cancel: cancel}, nil
}

// refreshRun is one LoLi-IR refresh: when it ran and what it cost.
type refreshRun struct {
	start, end time.Time
	iters      int
}

func runRefresh(o options, tr *tracer) (*result, error) {
	rg := newRig(o, tr)
	inDep, err := testbed.New(walkConfig())
	if err != nil {
		return nil, err
	}
	p := newPath(inDep.Channel, newRand(o.seed, 3), walkStep, walkRing, refreshDays)
	due := periodic(refreshRate, o.warmup+o.window)
	m := inDep.Channel.M()
	rg.rate, rg.batchLen = refreshRate, m

	su := setups[*refreshEnv]{rg: rg, k: 8, setup: func() (*refreshEnv, error) { return setupRefresh(tr) }, teardown: (*refreshEnv).close}
	env, err := su.before()
	if err != nil {
		return nil, err
	}
	defer env.close()
	rg.svc = env.svc
	if tr != nil {
		rg.layer["core.locate_isolated_us_p50"] = isolatedLocate(env.sys.Model(), p.ys)
	}

	zl := &zoneLog{}
	rg.zones = []*zoneLog{zl}
	ch, stopWatch, err := env.svc.Watch(zoneID)
	if err != nil {
		return nil, err
	}
	defer stopWatch()
	done := make(chan struct{})
	var consumers sync.WaitGroup
	startWG(&consumers, func() { consume(ch, done, &zl.receipts) })

	conn, err := net.Dial("udp", env.data)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	sentAt := make([]int64, len(due)) // wall clock each sweep fell due
	var sendErrs int
	stop := make(chan struct{})
	t0 := time.Now().Add(20 * time.Millisecond)
	var gen sync.WaitGroup
	startWG(&gen, func() {
		frames := make([]wire.RSSReport, m)
		var buf []byte
		rg.lag = pace(t0, due, refreshCatchUp, nil, func(i int, at time.Time) {
			now := time.Now()
			for l, v := range p.ys[i%len(p.ys)] {
				frames[l] = wire.RSSReport{LinkID: uint16(l), Seq: uint32(i), Time: now}
				frames[l].SetRSS(v)
			}
			buf = wire.AppendBatchTo(buf[:0], frames)
			sentAt[i] = at.UnixNano()
			rg.offered += int64(m)
			if _, err := conn.Write(buf); err != nil {
				sendErrs++
			}
		})
		close(stop)
	})
	var refreshes []refreshRun
	var refreshErr error
	startWG(&gen, func() {
		sys, ok := env.svc.System(zoneID)
		if !ok {
			refreshErr = fmt.Errorf("zone %s has no system", zoneID)
			return
		}
		ctx := context.Background()
		for {
			select {
			case <-stop:
				return
			default:
			}
			refCols, _ := env.dep.SurveyCells(sys.References(), refreshDays)
			vacant := env.dep.VacantCapture(refreshDays, 100)
			start := time.Now()
			rec, err := sys.UpdateContext(ctx, refCols, vacant)
			if err != nil {
				refreshErr = fmt.Errorf("update: %w", err)
				return
			}
			refreshes = append(refreshes, refreshRun{start: start, end: time.Now(), iters: rec.Iterations})
		}
	})
	rg.measure(t0)
	gen.Wait()
	if refreshErr != nil {
		return nil, refreshErr
	}
	rg.settle()
	close(done)
	consumers.Wait()
	env.close() // the sink log is complete once the UDP loop has exited
	if err := su.after(); err != nil {
		return nil, err
	}

	sl := env.log
	var cum uint64
	delivered := 0
	for j, seq := range sl.seq {
		n := sl.frames[j]
		delivered += n
		if oc := sl.outcomes[j]; oc != accepted {
			rg.fail(oc.String(), n)
		} else {
			cum += uint64(n)
			rg.accepted += int64(n)
		}
		zl.offer(time.Unix(0, sentAt[seq]), cum, p.pos[int(seq)%len(p.pos)])
	}
	cs := env.col.Store.Stats()
	rg.fail("collector_dropped", int(cs.FramesDropped))
	rg.fail("transport", int(rg.offered)-int(cs.FramesReceived))
	rg.check("collector_sink", uint64(delivered) == cs.FramesReceived-cs.FramesDropped,
		"sink saw %d frames; collector decoded %d (%d send errors)", delivered, cs.FramesReceived-cs.FramesDropped, sendErrs)

	var updS, updMs, iters []float64
	for _, r := range refreshes {
		if !r.end.Before(rg.w0) && r.end.Before(rg.w1) {
			d := r.end.Sub(r.start)
			updS = append(updS, d.Seconds())
			updMs = append(updMs, float64(d.Nanoseconds())/1e6)
			iters = append(iters, float64(r.iters))
		}
	}
	rg.check("refreshes", len(updS) > 0, "%d LoLi-IR refreshes ended inside the window (%d in all)", len(updS), len(refreshes))
	rg.extra["update_s"] = median(updS)
	if tr != nil {
		rg.layer["core.update_ms_p50"] = median(updMs)
		rg.layer["core.loli_iters"] = median(iters)
		rg.layer["collector.transit_us_p50"] = median(sl.transit)
		rg.layer["collector.transit_us_p99"] = quantile(sorted(sl.transit), 0.99)
		rg.layer["collector.sink_us_p50"] = median(sl.sink)
		rg.layer["collector.frames_dropped"] = float64(cs.FramesDropped)
	}
	return rg.finish(refreshBand), nil
}
