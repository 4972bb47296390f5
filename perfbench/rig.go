package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"tafloc/internal/geom"
	"tafloc/internal/serve"
)

// options are the settings of one run.
type options struct {
	seed   uint64
	window time.Duration // the measured window (--seconds)
	warmup time.Duration // open-loop traffic before the window opens
	setups int           // set-up repetitions behind setup_s (0 = workload default)
}

// zoneLog is the benchmark's record of one zone: every batch the
// generator offered it, and every estimate a consumer received from it.
// Each slice has one writer goroutine and is read only after that
// goroutine has stopped.
type zoneLog struct {
	// Per offered batch, in the order the zone accepted or refused them:
	// the wall-clock time it fell due, the zone's accepted-report total
	// after it (unchanged when it failed), and the walker's true position.
	due []int64
	cum []uint64
	pos []geom.Point

	receipts []receipt // primary consumer: SSE on walk-http, in-process Watch elsewhere
	watch    []receipt // in-process Watch, when it is not the primary consumer
}

func (z *zoneLog) offer(due time.Time, cum uint64, pos geom.Point) {
	z.due = append(z.due, due.UnixNano())
	z.cum = append(z.cum, cum)
	z.pos = append(z.pos, pos)
}

type receipt struct {
	est  serve.Estimate
	recv int64 // wall-clock unix nanoseconds
}

// consume appends every estimate from ch to *dst until ch closes or done
// is closed.
func consume(ch <-chan serve.Estimate, done <-chan struct{}, dst *[]receipt) {
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return
			}
			*dst = append(*dst, receipt{est: e, recv: time.Now().UnixNano()})
		case <-done:
			return
		}
	}
}

// totals sums the per-zone counters of Service.Stats.
type totals struct {
	received, batches, estimates, matchErrors, starved uint64
	evictions, rehydrates, residencyErrors             uint64
}

func sumStats(svc *serve.Service) totals {
	var t totals
	for _, s := range svc.Stats() {
		t.received += s.Received
		t.batches += s.Batches
		t.estimates += s.Estimates
		t.matchErrors += s.MatchErrors
		t.starved += s.Starved
		t.evictions += s.Evictions
		t.rehydrates += s.Rehydrates
		t.residencyErrors += s.RehydrateErrors + s.EvictErrors
	}
	return t
}

// probe is the process and service state at one window boundary.
type probe struct {
	at      time.Time
	tot     totals
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64
	pauseNs uint64
}

func takeProbe(svc *serve.Service) probe {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		at:      time.Now(),
		tot:     sumStats(svc),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// monitor samples the heap (and, when traced, the scheduler backlog and
// the hot-zone count) through the measured window.
type monitor struct {
	stop, done chan struct{}
	heap       []float64 // HeapInuse, MiB
	backlog    []float64 // total queued batches over all zones
	hotMax     int
}

const monitorEvery = 50 * time.Millisecond

func startMonitor(svc *serve.Service, traced bool) *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(monitorEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			inuse := sample[0].Value.Uint64() + sample[1].Value.Uint64()
			m.heap = append(m.heap, float64(inuse)/(1<<20))
			if traced {
				q := 0
				for _, s := range svc.Stats() {
					q += s.QueueLen
				}
				m.backlog = append(m.backlog, float64(q))
				m.hotMax = max(m.hotMax, svc.HotZones())
			}
		}
	}()
	return m
}

func (m *monitor) finish() {
	close(m.stop)
	<-m.done
}

// rig is one run of one workload: the service under test, what the
// generators offered, what the consumers received, and the window
// boundaries. Workloads fill it; finish turns it into a result.
type rig struct {
	o     options
	tr    *tracer
	svc   *serve.Service
	zones []*zoneLog

	setupTimes []float64
	w0, w1     time.Time
	p0, p1     probe
	mon        *monitor
	lag        []time.Duration
	rate       float64 // offered batches per second
	batchLen   int     // reports per batch

	// Report accounting over the whole run (warm-up and window).
	offered, accepted int64
	failures          map[string]int64 // failure class → reports

	layer  map[string]float64 // per-layer figures the workload measured itself
	extra  map[string]float64 // untraced figures beyond the JSON metrics
	checks []check
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newRig(o options, tr *tracer) *rig {
	return &rig{o: o, tr: tr, failures: map[string]int64{}, layer: map[string]float64{}, extra: map[string]float64{}}
}

func (rg *rig) fail(class string, reports int) { rg.failures[class] += int64(reports) }

func (rg *rig) check(name string, ok bool, format string, args ...any) {
	rg.checks = append(rg.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// setups times a workload's set-up. The host's CPU speed drifts on a
// scale of a second (a busy hyperthread sibling slows a set-up by up to
// half), so half of the repetitions run before the window and half after
// it, and setup_s is the median of all of them.
type setups[E any] struct {
	rg       *rig
	k        int // repetitions on each side of the window
	setup    func() (E, error)
	teardown func(E)
}

func (s setups[E]) once() (E, error) {
	runtime.GC() // start every set-up from the same heap state
	start := time.Now()
	e, err := s.setup()
	if err != nil {
		return e, fmt.Errorf("set-up: %w", err)
	}
	s.rg.setupTimes = append(s.rg.setupTimes, time.Since(start).Seconds())
	return e, nil
}

func (s setups[E]) reps() int {
	if s.rg.o.setups > 0 {
		return s.rg.o.setups
	}
	return s.k
}

// before builds the environment repeatedly, tears down all but the last
// build, and returns that one for the run.
func (s setups[E]) before() (E, error) {
	var env E
	for i := 0; i < s.reps(); i++ {
		if i > 0 {
			s.teardown(env)
		}
		e, err := s.once()
		if err != nil {
			return e, err
		}
		env = e
	}
	return env, nil
}

// after builds and tears down the environment repeatedly; call it once
// the run's own environment is closed.
func (s setups[E]) after() error {
	for i := 0; i < s.reps(); i++ {
		e, err := s.once()
		if err != nil {
			return err
		}
		s.teardown(e)
	}
	return nil
}

// measure is run by the harness goroutine while the generators send: it
// waits out the warm-up, opens the window (counters, tracer, monitor),
// waits out the window, and closes it.
func (rg *rig) measure(t0 time.Time) {
	rg.w0 = t0.Add(rg.o.warmup)
	rg.w1 = rg.w0.Add(rg.o.window)
	time.Sleep(time.Until(rg.w0))
	rg.p0 = takeProbe(rg.svc)
	if rg.tr != nil {
		rg.tr.on.Store(true)
	}
	rg.mon = startMonitor(rg.svc, rg.tr != nil)
	time.Sleep(time.Until(rg.w1))
	rg.mon.finish()
	if rg.tr != nil {
		rg.tr.on.Store(false)
	}
	rg.p1 = takeProbe(rg.svc)
}

// settle waits, after the generators stopped, until the service has
// published everything it accepted (or a deadline passes), so the last
// batches of the window get their estimates.
func (rg *rig) settle() {
	deadline := time.Now().Add(2 * time.Second)
	last := sumStats(rg.svc).estimates
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := sumStats(rg.svc).estimates
		if cur == last {
			return
		}
		last = cur
	}
}

// result is what one run reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int64
	checks            []check
	context           []string
}

// finish attributes estimates to batches, computes every metric, and runs
// the checks common to all workloads.
func (rg *rig) finish(band [2]float64) *result {
	w0, w1 := rg.w0.UnixNano(), rg.w1.UnixNano()
	var pub, del, locErr, watchGap []float64
	var slice []int // second of the window each latency sample's batch fell due in
	unmatched, disorder, received := 0, 0, 0
	for _, z := range rg.zones {
		var lastSeq uint64
		for _, r := range z.receipts {
			if r.est.Final {
				continue
			}
			received++
			if r.est.Seq <= lastSeq {
				disorder++
			}
			lastSeq = r.est.Seq
			// The estimate belongs to the last batch whose accepted total
			// equals the number of reports folded into it.
			k := sort.Search(len(z.cum), func(i int) bool { return z.cum[i] > r.est.Reports }) - 1
			if k < 0 || z.cum[k] != r.est.Reports {
				unmatched++
				continue
			}
			due := z.due[k]
			if due < w0 || due >= w1 {
				continue
			}
			pub = append(pub, float64(r.est.Time.UnixNano()-due)/1e6)
			del = append(del, float64(r.recv-due)/1e6)
			slice = append(slice, int((due-w0)/int64(time.Second)))
			if r.est.Present {
				p := z.pos[k]
				locErr = append(locErr, math.Hypot(r.est.Point.X-p.X, r.est.Point.Y-p.Y))
			}
		}
		watch := z.watch
		if watch == nil {
			watch = z.receipts
		}
		for _, r := range watch {
			if !r.est.Final && r.recv >= w0 && r.recv < w1 {
				watchGap = append(watchGap, float64(r.recv-r.est.Time.UnixNano())/1e3)
			}
		}
	}
	pubP90, delP90 := sliced(pub, slice, 0.90), sliced(del, slice, 0.90)
	pubP99, delP99 := sliced(pub, slice, 0.99), sliced(del, slice, 0.99)
	sort.Float64s(pub)
	sort.Float64s(del)
	sort.Float64s(locErr)
	sort.Float64s(watchGap)

	d0, d1 := rg.p0.tot, rg.p1.tot
	secs := rg.p1.at.Sub(rg.p0.at).Seconds()
	est := float64(d1.estimates - d0.estimates)
	var failed int64
	for _, n := range rg.failures {
		failed += n
	}
	end := sumStats(rg.svc)

	m := map[string]float64{
		"setup_s":             median(rg.setupTimes),
		"publish_p50_ms":      quantile(pub, 0.50),
		"publish_p90_ms":      pubP90,
		"publish_p99_ms":      pubP99,
		"delivery_p50_ms":     quantile(del, 0.50),
		"delivery_p90_ms":     delP90,
		"delivery_p99_ms":     delP99,
		"estimates_per_s":     est / secs,
		"loc_error_p50_m":     quantile(locErr, 0.50),
		"cpu_ms_per_estimate": float64(rg.p1.cpu-rg.p0.cpu) / 1e6 / est,
		"heap_mb":             median(rg.mon.heap),
		"failed_ratio":        float64(failed) / float64(rg.offered),
	}
	for k, v := range rg.extra {
		m[k] = v
	}

	rg.check("accounting", rg.offered == rg.accepted+failed && uint64(rg.accepted) == end.received,
		"offered %d = accepted %d + failed %d; service received %d", rg.offered, rg.accepted, failed, end.received)
	rg.check("attribution", unmatched == 0 && len(pub) >= 100,
		"%d of %d estimates match no offered batch; %d latency samples in the window", unmatched, received, len(pub))
	rg.check("seq", disorder == 0, "%d estimates arrived out of per-zone Seq order", disorder)
	rg.check("match_errors", end.matchErrors == 0, "%d match errors", end.matchErrors)
	rg.check("starved", d1.starved == d0.starved, "%d fold rounds starved inside the window", d1.starved-d0.starved)
	rg.check("accuracy", m["loc_error_p50_m"] >= band[0] && m["loc_error_p50_m"] <= band[1],
		"loc_error_p50_m %.3f within [%.2f, %.2f]", m["loc_error_p50_m"], band[0], band[1])

	lagP99 := quantileDur(rg.lag, 0.99)
	perSlice := float64(len(pub)) / rg.o.window.Seconds()
	res := &result{metrics: m, attempted: rg.offered, failed: failed, checks: rg.checks}
	res.context = append(res.context,
		fmt.Sprintf("offered %.0f batches/s x %d reports; %d latency samples, %.0f per one-second slice (each slice's p90 has %.0f beyond it, its p99 %.0f); %d present fixes",
			rg.rate, rg.batchLen, len(pub), perSlice, perSlice/10, perSlice/100, len(locErr)),
		fmt.Sprintf("generator lag p99 %.3f ms over %d sends%s", lagP99, len(rg.lag), behind(lagP99)))
	for class, n := range rg.failures {
		if n > 0 {
			res.context = append(res.context, fmt.Sprintf("failed reports: %s %d", class, n))
		}
	}
	if rg.tr == nil {
		return res
	}

	t := rg.tr
	rounds := float64(d1.batches - d0.batches)
	starved := float64(d1.starved - d0.starved)
	locate, detect := t.locate.sorted(), t.detect.sorted()
	ingest, cold := t.ingest.sorted(), t.ingestCold.sorted()
	gets, puts := t.storeGet.sorted(), t.storePut.sorted()
	hit := 1.0
	if n := t.ingest.count(); n > 0 {
		hit = 1 - float64(t.ingestCold.count())/float64(n)
	}
	var putMean float64
	if n := t.storePut.count(); n > 0 {
		putMean = float64(t.putBytes.Load()) / float64(n)
	}
	superseded := 0.0
	if rounds-starved > 0 {
		superseded = 1 - est/(rounds-starved)
	}
	l := map[string]float64{
		"gen.lag_p50_ms":              quantileDur(rg.lag, 0.50),
		"gen.lag_p99_ms":              lagP99,
		"gen.offered_reports":         float64(rg.offered),
		"client.lines_acked":          0,
		"collector.frames_dropped":    0,
		"ingest.us_p50":               quantile(ingest, 0.50) / 1e3,
		"ingest.us_p99":               quantile(ingest, 0.99) / 1e3,
		"ingest.calls":                float64(t.ingest.count()),
		"ingest.shed":                 float64(rg.failures["shed"]),
		"ingest.cold_us_p50":          quantile(cold, 0.50) / 1e3,
		"sched.rounds":                rounds,
		"sched.superseded_ratio":      superseded,
		"sched.queue_len_p99":         quantile(sorted(rg.mon.backlog), 0.99),
		"sched.starved":               starved,
		"core.locate_us_p50":          quantile(locate, 0.50) / 1e3,
		"core.locate_us_p99":          quantile(locate, 0.99) / 1e3,
		"core.locate_calls":           float64(t.locate.count()),
		"core.detect_us_p50":          quantile(detect, 0.50) / 1e3,
		"core.update_ms_p50":          0,
		"core.loli_iters":             0,
		"store.get_us_p50":            quantile(gets, 0.50) / 1e3,
		"store.put_us_p50":            quantile(puts, 0.50) / 1e3,
		"store.gets":                  float64(t.storeGet.count()),
		"store.puts":                  float64(t.storePut.count()),
		"store.put_bytes_mean":        putMean,
		"residency.rehydrates":        float64(d1.rehydrates - d0.rehydrates),
		"residency.evictions":         float64(d1.evictions - d0.evictions),
		"residency.hit_ratio":         hit,
		"residency.hot_zones_max":     float64(rg.mon.hotMax),
		"residency.errors":            float64(d1.residencyErrors - d0.residencyErrors),
		"publish.watch_gap_us_p50":    quantile(watchGap, 0.50),
		"go.allocs_per_estimate":      float64(rg.p1.mallocs-rg.p0.mallocs) / est,
		"go.gc_pause_ms_total":        float64(rg.p1.pauseNs-rg.p0.pauseNs) / 1e6,
		"client.send_us_p50":          0,
		"client.sse_gap_p50_ms":       0,
		"collector.transit_us_p50":    0,
		"collector.transit_us_p99":    0,
		"collector.sink_us_p50":       0,
		"core.locate_isolated_us_p50": 0,
	}
	for k, v := range rg.layer {
		l[k] = v
	}
	for k, v := range l {
		m[k] = v
	}
	return res
}

// sliced is the median, over the one-second slices of the window, of
// each slice's q-quantile. One stall of a shared machine then moves the
// tail of one slice instead of the tail of the run.
func sliced(v []float64, slice []int, q float64) float64 {
	var by [][]float64
	for i, x := range v {
		for len(by) <= slice[i] {
			by = append(by, nil)
		}
		by[slice[i]] = append(by[slice[i]], x)
	}
	var per []float64
	for _, b := range by {
		if len(b) > 0 {
			per = append(per, quantile(sorted(b), q))
		}
	}
	return median(per)
}

func behind(lagP99 float64) string {
	if lagP99 > behindMs {
		return fmt.Sprintf(" -- BEHIND SCHEDULE (over %.0f ms): the offered rate was not met", behindMs)
	}
	return ""
}

// behindMs is the generator lateness (p99) past which a run is flagged:
// the generator then stalled for whole fractions of a one-second slice
// and the service saw the schedule's traffic in bursts. Lateness of a
// millisecond or two is the timer granularity of a sleeping generator.
const behindMs = 20.0

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of ascending s (0 when empty).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func quantileDur(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / 1e6
	}
	return quantile(sorted(v), q)
}

// startWG runs fn on a goroutine counted by wg.
func startWG(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}
