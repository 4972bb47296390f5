package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tafloc"
	"tafloc/client"
	"tafloc/internal/core"
	"tafloc/internal/serve"
	"tafloc/internal/testbed"
)

// walk-http: one 12 m x 12 m zone (400 cells, 17 links, wknn matcher).
// One walker's link sweeps go through one client.ReportStream over
// loopback HTTP, and estimates come back on one client.Watch SSE stream:
// two connections, one generator goroutine. The zone publishes fewer
// estimates than it is offered sweeps: fold rounds merge queued sweeps,
// and freshest-wins coalescing supersedes rounds that finish while a
// locate runs. The rate leaves the two vCPUs some headroom (at 12k
// sweeps/s runs turned bimodal under a neighbour's load), and the deep
// queue keeps ingest from shedding.
const (
	walkRate  = 7000.0 // sweeps per second
	walkQueue = 16384  // batches; absorbs a ~2.3 s stall
	walkRing  = 16384  // distinct sweeps before the walk repeats
	walkStep  = 0.02   // metres per sweep: the ring covers the room many times
)

func walkConfig() testbed.Config { return testbed.SquareConfig(12) }

// zoneID is the ID of the single zone of walk-http and refresh-udp.
const zoneID = "zone-0"

// matcherAndDetector are the strategy names a run configures: the
// built-ins untraced, their timing delegates traced.
func matcherAndDetector(tr *tracer) (string, string) {
	if tr == nil {
		return core.MatcherWKNN, core.DetectorMAD
	}
	return tracedMatcher, tracedDetector
}

type walkEnv struct {
	sys    *core.System
	svc    *serve.Service
	srv    *http.Server
	url    string
	cancel context.CancelFunc
}

func (e *walkEnv) close() {
	e.cancel()
	e.svc.Stop()
	e.svc.Wait()
	_ = e.srv.Close() // listener and any remaining connections; nothing to report
}

func setupWalk(tr *tracer) (*walkEnv, error) {
	matcher, detector := matcherAndDetector(tr)
	dep, err := testbed.New(walkConfig())
	if err != nil {
		return nil, err
	}
	sys, err := tafloc.OpenDeployment(dep, tafloc.WithMatcher(matcher))
	if err != nil {
		return nil, err
	}
	svc, err := serve.NewService(serve.Config{QueueDepth: walkQueue, Detector: detector})
	if err != nil {
		return nil, err
	}
	if err := svc.AddZone(zoneID, sys); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := svc.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return &walkEnv{sys: sys, svc: svc, srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel}, nil
}

func runWalk(o options, tr *tracer) (*result, error) {
	rg := newRig(o, tr)
	inDep, err := testbed.New(walkConfig())
	if err != nil {
		return nil, err
	}
	p := newPath(inDep.Channel, newRand(o.seed, 1), walkStep, walkRing, 0)
	due := periodic(walkRate, o.warmup+o.window)
	m := inDep.Channel.M()
	rg.rate, rg.batchLen = walkRate, m

	su := setups[*walkEnv]{rg: rg, k: 8, setup: func() (*walkEnv, error) { return setupWalk(tr) }, teardown: (*walkEnv).close}
	env, err := su.before()
	if err != nil {
		return nil, err
	}
	defer env.close()
	rg.svc = env.svc
	if tr != nil {
		rg.layer["core.locate_isolated_us_p50"] = isolatedLocate(env.sys.Model(), p.ys)
	}

	tp := &http.Transport{MaxConnsPerHost: 2}
	defer tp.CloseIdleConnections()
	cli, err := client.New(env.url, client.WithHTTPClient(&http.Client{Transport: tp}))
	if err != nil {
		return nil, err
	}
	zl := &zoneLog{}
	rg.zones = []*zoneLog{zl}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var consumers sync.WaitGroup
	sse, err := cli.Watch(ctx, zoneID)
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	startWG(&consumers, func() {
		for e := range sse {
			zl.receipts = append(zl.receipts, receipt{est: e, recv: time.Now().UnixNano()})
		}
	})
	done := make(chan struct{})
	if tr != nil {
		// The traced run also watches in process, to split the SSE
		// delivery into the publish fan-out and the HTTP leg.
		ch, stopWatch, err := env.svc.Watch(zoneID)
		if err != nil {
			return nil, err
		}
		defer stopWatch()
		zl.watch = []receipt{}
		startWG(&consumers, func() { consume(ch, done, &zl.watch) })
	}
	st, err := cli.ReportStream(ctx, zoneID)
	if err != nil {
		return nil, fmt.Errorf("report stream: %w", err)
	}

	batch := make([]client.Report, m) // Send encodes before it returns, so one buffer serves every line
	var sendErr error
	stop := make(chan struct{})
	t0 := time.Now().Add(20 * time.Millisecond)
	var gen sync.WaitGroup
	startWG(&gen, func() {
		rg.lag = pace(t0, due, 0, stop, func(i int, at time.Time) {
			k := i % len(p.ys)
			for l, v := range p.ys[k] {
				batch[l] = client.Report{Link: l, RSS: v}
			}
			var start time.Time
			t := recording()
			if t != nil {
				start = time.Now()
			}
			if err := st.Send(batch); err != nil {
				sendErr = err
				close(stop)
				return
			}
			if t != nil {
				t.clientSend.add(time.Since(start))
			}
			rg.offered += int64(m)
			// Attribution assumes every line is accepted; the accounting
			// below fails the run if one was not.
			zl.offer(at, uint64(i+1)*uint64(m), p.pos[k])
		})
	})
	rg.measure(t0)
	gen.Wait()
	if sendErr != nil {
		return nil, fmt.Errorf("report stream send: %w", sendErr)
	}
	syncCtx, cancelSync := context.WithTimeout(ctx, 30*time.Second)
	defer cancelSync()
	if err := st.Sync(syncCtx); err != nil {
		return nil, fmt.Errorf("report stream sync: %w", err)
	}
	rg.settle()
	sum, err := st.Close()
	if err != nil {
		return nil, fmt.Errorf("report stream close: %w", err)
	}
	stats := st.Stats()
	rg.accepted = int64(stats.Accepted)
	rg.fail("shed", int(stats.Shed))
	rg.fail("rejected", int(stats.Rejected))
	rg.fail("transport", int(rg.offered)-int(stats.Accepted+stats.Shed+stats.Rejected))
	rg.check("stream_trailer", sum.Accepted == stats.Accepted && sum.Lines == stats.Lines,
		"server trailer %d lines / %d accepted, client acks %d / %d", sum.Lines, sum.Accepted, stats.Lines, stats.Accepted)
	cancel()
	close(done)
	consumers.Wait()
	env.close()
	if err := su.after(); err != nil {
		return nil, err
	}

	var sseGap []float64
	for _, r := range zl.receipts {
		if !r.est.Final && r.recv >= rg.w0.UnixNano() && r.recv < rg.w1.UnixNano() {
			sseGap = append(sseGap, float64(r.recv-r.est.Time.UnixNano())/1e6)
		}
	}
	res := rg.finish(walkBand)
	if tr != nil {
		res.metrics["client.lines_acked"] = float64(stats.Acked)
		res.metrics["ingest.calls"] = float64(linesIn(zl.due, rg.w0, rg.w1)) // one server-side Ingest per line
		res.metrics["client.send_us_p50"] = quantile(tr.clientSend.sorted(), 0.5) / 1e3
		res.metrics["client.sse_gap_p50_ms"] = median(sseGap)
	}
	return res, nil
}

// isolatedLocate is the locate cost with no load and no contention: the
// same Model and sweep vectors as the run, one goroutine, one Scratch.
func isolatedLocate(model *core.Model, ys [][]float64) float64 {
	sc := core.NewScratch()
	n := min(len(ys), 2000)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		_, _ = model.Locate(ys[i], sc) // the run's checks cover locate errors
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}

// linesIn counts the batches that fell due inside [w0, w1).
func linesIn(due []int64, w0, w1 time.Time) int {
	n := 0
	for _, d := range due {
		if d >= w0.UnixNano() && d < w1.UnixNano() {
			n++
		}
	}
	return n
}
