package main

import (
	"sort"
	"sync/atomic"
	"time"

	"tafloc/internal/core"
	"tafloc/internal/serve"
	"tafloc/internal/store"
	"tafloc/taflocerr"
)

// Tracing lives entirely in the benchmark: it times calls into each
// layer's public functions and public extension points (a registered
// matcher and detector, a Store decorator, an Ingestor decorator) and
// adds nothing inside the program.

// Registry names of the timing strategies. They delegate to the built-in
// wknn matcher and mad detector, and are registered by name so that a
// zone's snapshot round-trips through eviction with its timing matcher.
const (
	tracedMatcher  = "perfbench-wknn"
	tracedDetector = "perfbench-mad"
)

// active is the tracer of the running traced phase. The registered
// factories reach it through this pointer because the core registry is
// process-wide.
var active atomic.Pointer[tracer]

func init() {
	if err := core.RegisterMatcher(tracedMatcher, func() core.Matcher {
		return timedMatcher{inner: core.WeightedKNNMatcher{}}
	}); err != nil {
		panic(err)
	}
	if err := core.RegisterDetector(tracedDetector, func(vacant []float64, thr float64) core.Presence {
		return timedPresence{inner: core.Detector{Vacant: vacant, ThresholdDB: thr}}
	}); err != nil {
		panic(err)
	}
}

// durations is a fixed-capacity recorder that concurrent goroutines add
// to without a lock: each add claims a slot with one atomic increment.
// Samples past capacity are counted but not kept.
type durations struct {
	n   atomic.Int64
	buf []int64
}

// traceCapacity bounds the samples one recorder keeps: above the highest
// per-window call rate of any workload.
const traceCapacity = 1 << 18

func newDurations() *durations { return &durations{buf: make([]int64, traceCapacity)} }

func (d *durations) add(v time.Duration) {
	if i := d.n.Add(1) - 1; i < int64(len(d.buf)) {
		d.buf[i] = int64(v)
	}
}

// count is the number of samples added, kept or not.
func (d *durations) count() int64 { return d.n.Load() }

// sorted returns the kept samples in ascending order, in nanoseconds.
// Call it only once every goroutine that adds has stopped.
func (d *durations) sorted() []float64 {
	n := min(d.n.Load(), int64(len(d.buf)))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(d.buf[i])
	}
	sort.Float64s(out)
	return out
}

// tracer holds the per-layer recorders of one traced phase. Recording
// happens only while on is set, which is the measured window.
type tracer struct {
	on atomic.Bool

	locate, detect, ingest, ingestCold *durations
	storeGet, storePut, clientSend     *durations

	putBytes atomic.Int64

	// zoneGets counts store Gets per zone, so the ingest decorator can
	// tell the calls that rehydrated a cold zone from the ones that
	// found it hot. Indexed through zoneIdx, fixed before the run.
	zoneIdx  map[string]int
	zoneGets []atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		locate: newDurations(), detect: newDurations(),
		ingest: newDurations(), ingestCold: newDurations(),
		storeGet: newDurations(), storePut: newDurations(),
		clientSend: newDurations(),
	}
}

// setZones fixes the zone table the store and ingest decorators index.
func (t *tracer) setZones(ids []string) {
	t.zoneIdx = make(map[string]int, len(ids))
	for i, id := range ids {
		t.zoneIdx[id] = i
	}
	t.zoneGets = make([]atomic.Int64, len(ids))
}

// recording reports whether the measured window of a traced phase is
// open.
func recording() *tracer {
	if t := active.Load(); t != nil && t.on.Load() {
		return t
	}
	return nil
}

// timedMatcher times Model.Locate's match step.
type timedMatcher struct{ inner core.Matcher }

func (m timedMatcher) Match(md *core.Model, y []float64, sc *core.Scratch) (core.Location, error) {
	t := recording()
	if t == nil {
		return m.inner.Match(md, y, sc)
	}
	start := time.Now()
	loc, err := m.inner.Match(md, y, sc)
	t.locate.add(time.Since(start))
	return loc, err
}

// timedPresence times the presence-detection gate.
type timedPresence struct{ inner core.Presence }

func (p timedPresence) Present(y []float64) (bool, float64) {
	t := recording()
	if t == nil {
		return p.inner.Present(y)
	}
	start := time.Now()
	ok, dev := p.inner.Present(y)
	t.detect.add(time.Since(start))
	return ok, dev
}

// timedStore decorates the residency tier's snapshot store.
type timedStore struct {
	inner store.Store
	t     *tracer
}

func (s timedStore) Put(zone string, data []byte) error {
	if !s.t.on.Load() {
		return s.inner.Put(zone, data)
	}
	start := time.Now()
	err := s.inner.Put(zone, data)
	s.t.storePut.add(time.Since(start))
	s.t.putBytes.Add(int64(len(data)))
	return err
}

func (s timedStore) Get(zone string) ([]byte, error) {
	if i, ok := s.t.zoneIdx[zone]; ok {
		s.t.zoneGets[i].Add(1)
	}
	if !s.t.on.Load() {
		return s.inner.Get(zone)
	}
	start := time.Now()
	data, err := s.inner.Get(zone)
	s.t.storeGet.add(time.Since(start))
	return data, err
}

func (s timedStore) Delete(zone string) error { return s.inner.Delete(zone) }
func (s timedStore) List() ([]string, error)  { return s.inner.List() }

// timedIngestor decorates Service.Ingest. A call during which the zone's
// store Get count moved is counted as a cold call; with one producer per
// zone the only other Get source is an executor task rehydrating the same
// zone, which the ingest path would otherwise have paid for.
type timedIngestor struct {
	svc *serve.Service
	t   *tracer
}

func (g timedIngestor) Ingest(zone string, reports []serve.Report) error {
	if !g.t.on.Load() {
		return g.svc.Ingest(zone, reports)
	}
	i, known := g.t.zoneIdx[zone]
	var before int64
	if known {
		before = g.t.zoneGets[i].Load()
	}
	start := time.Now()
	err := g.svc.Ingest(zone, reports)
	d := time.Since(start)
	g.t.ingest.add(d)
	if known && g.t.zoneGets[i].Load() != before {
		g.t.ingestCold.add(d)
	}
	return err
}

// ingestor returns the Ingestor the benchmark's producers call: the
// service itself when untraced.
func ingestor(svc *serve.Service, t *tracer) serve.Ingestor {
	if t == nil {
		return svc
	}
	return timedIngestor{svc: svc, t: t}
}

// outcome classifies one Ingest result for the failure accounting.
type outcome uint8

const (
	accepted outcome = iota
	shed
	rejected
	rehydrateFailed
)

func (o outcome) String() string {
	return [...]string{"accepted", "shed", "rejected", "rehydrate_failed"}[o]
}

func classify(err error) outcome {
	if err == nil {
		return accepted
	}
	switch taflocerr.CodeOf(err) {
	case taflocerr.CodeQueueFull:
		return shed
	case taflocerr.CodeRehydrateFailed:
		return rehydrateFailed
	default:
		return rejected
	}
}
