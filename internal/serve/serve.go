package serve

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/store"
	"tafloc/internal/track"
	"tafloc/internal/wire"
	"tafloc/taflocerr"
)

// Service errors. Each carries a taflocerr code, so callers can branch
// with errors.Is against either these exact values or the canonical
// taflocerr sentinels; the messages are frozen because the /v1 handlers
// serialize them verbatim.
var (
	ErrZoneExists  error = taflocerr.New(taflocerr.CodeZoneExists, "serve: zone already registered")
	ErrUnknownZone error = taflocerr.New(taflocerr.CodeUnknownZone, "serve: unknown zone")
	ErrQueueFull   error = taflocerr.New(taflocerr.CodeQueueFull, "serve: zone queue full")
	ErrStarted     error = taflocerr.New(taflocerr.CodeStarted, "serve: service already started")
	ErrBadReport   error = taflocerr.New(taflocerr.CodeBadLink, "serve: report link out of range")
	ErrRehydrate   error = taflocerr.New(taflocerr.CodeRehydrateFailed, "serve: zone rehydrate failed")
)

// ZoneFactory builds a core.System for a zone created over the wire
// (POST /v2/zones/{id}). The factory decides what a ZoneSpec means —
// cmd/tafloc-serve surveys a simulated deployment of the requested
// geometry. A service without a factory rejects wire-side creation with
// taflocerr.CodeUnsupported.
type ZoneFactory func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error)

// Config tunes the service. A zero field means "unset" and selects the
// default noted on it; a negative value means "explicitly the minimum" —
// zero for fields where zero is meaningful (a disabled detection gate,
// no heartbeat, no history), the smallest legal value otherwise. The two
// cannot be conflated: Config{} keeps every default, while
// Config{DetectThresholdDB: -1} genuinely disables presence gating. The
// functional options in the root package translate explicit zero
// arguments into the negative sentinels, so tafloc.WithDetectThreshold(0)
// does what it says.
type Config struct {
	// QueueDepth is the number of pending report batches each zone's
	// bounded queue holds before Ingest sheds load (default 256;
	// negative = 1).
	QueueDepth int
	// Window is the per-link live-window length the fold rounds average
	// over (default 8, matching the collector's default; negative = 1,
	// no averaging).
	Window int
	// DetectThresholdDB gates localization on target presence: batches
	// whose live vector deviates less than this from the zone's vacant
	// baseline publish an absent estimate without paying for matching
	// (default 1 dB; negative = gating disabled, every batch localizes).
	DetectThresholdDB float64
	// Detector names the presence-detection strategy from the core
	// registry (default core.DetectorMAD). Unknown names fail NewService
	// with a taflocerr error.
	Detector string
	// WatchHeartbeat is how often an idle SSE watch stream emits a
	// ": heartbeat" comment so proxy and load-balancer idle timeouts do
	// not kill it (default 15s; negative = no heartbeats).
	WatchHeartbeat time.Duration
	// History is the per-zone ring capacity of the published-estimate
	// history and the smoothed trajectory behind GET
	// /v2/zones/{id}/history and /track (default 256; negative =
	// history and trajectory tracking disabled, the routes answer
	// unsupported).
	History int
	// ZoneFactory enables zone creation over the /v2 HTTP surface.
	ZoneFactory ZoneFactory
	// MaxHotZones caps how many zones may hold a resident Model at once
	// (default 0 = unlimited, every zone stays hot; negative = 1, the
	// smallest useful cache), and needs a Store. When the service is
	// over the cap, the least-recently-touched hot zone is checkpointed
	// into Store (unless Store already holds its current state) and its
	// Model dropped; the zone stays registered and rehydrates on its
	// next Ingest (or the fold round it starts), System, snapshot export
	// or RehydrateZone. Position, Watch, Track and History never
	// rehydrate. Only a Store that keeps snapshots off the heap
	// (store.Dir) makes the cap save memory.
	MaxHotZones int
	// Store is the service's one snapshot store, for eviction,
	// Checkpoint, Restore and RemoveZone. Without it, EvictZone,
	// Checkpoint, Restore and StartCheckpointer fail with
	// taflocerr.CodeUnsupported.
	Store store.Store
}

// withDefaults normalizes a Config: zero fields become the documented
// defaults, negative fields become their explicit minimum. After
// normalization every field holds its effective value (in particular
// DetectThresholdDB == 0 means the gate is off and WatchHeartbeat == 0
// means no heartbeats).
func (c Config) withDefaults() Config {
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 256
	case c.QueueDepth < 0:
		c.QueueDepth = 1
	}
	switch {
	case c.Window == 0:
		c.Window = 8
	case c.Window < 0:
		c.Window = 1
	}
	switch {
	case c.DetectThresholdDB == 0:
		c.DetectThresholdDB = 1
	case c.DetectThresholdDB < 0:
		c.DetectThresholdDB = 0
	}
	if c.Detector == "" {
		c.Detector = core.DetectorMAD
	}
	switch {
	case c.WatchHeartbeat == 0:
		c.WatchHeartbeat = 15 * time.Second
	case c.WatchHeartbeat < 0:
		c.WatchHeartbeat = 0
	}
	switch {
	case c.History == 0:
		c.History = 256
	case c.History < 0:
		c.History = 0
	}
	if c.MaxHotZones < 0 {
		c.MaxHotZones = 1
	}
	return c
}

// Report is one RSS sample addressed to one link of a zone (shared wire
// type; see internal/api).
type Report = api.Report

// Estimate is a zone's position estimate, as published by the zone
// (shared wire type; see internal/api).
type Estimate = api.Estimate

// ZoneStats snapshots one zone's counters (shared wire type; see
// internal/api).
type ZoneStats = api.ZoneStats

// FromWire converts a decoded data-plane frame into a service report.
func FromWire(r *wire.RSSReport) Report {
	return Report{Link: int(r.LinkID), RSS: r.RSS(), Vacant: r.Vacant()}
}

// zoneConfig is the per-zone slice of the serving configuration: the
// knobs that shape what a zone publishes (as opposed to how the service
// schedules it). Zones default to the service-wide Config; a zone
// restored from a snapshot keeps the configuration it was captured
// under, so a restored zone serves exactly as the original did.
type zoneConfig struct {
	window   int
	thrDB    float64 // normalized: 0 = presence gating disabled
	detector string
	det      core.DetectorFactory // detector's factory, resolved when the config was built
	history  int                  // normalized: 0 = history and tracking disabled
	trk      track.Options        // always concrete (zero value replaced by defaults)
}

// watchBuffer is the per-watcher event buffer: a watcher that falls
// more than this many estimates behind misses the oldest ones. Sixteen
// estimates ride out a consumer's scheduling hiccup of a few fold
// rounds without holding stale positions long.
const watchBuffer = 16

// zone is one shard: a core.System plus ingest state, scheduled as a
// run-state machine over the shared executor pool instead of owning a
// goroutine. The scheduling invariant is at most one fold task and one
// locate task in flight per zone: the fold state (win/vwin rings,
// folded) is touched only by the single fold task, so it needs no
// locking, and the locate chain serializes publishes, so per-zone
// estimate order is what it was under the worker-per-zone design. An
// idle zone costs no goroutine at all.
type zone struct {
	id string
	// sys is the zone's residency slot: the System (and its Model) when
	// the zone is hot, nil when it has been evicted to the snapshot
	// store. Tasks resolve it once per round through ensureHot and carry
	// the resolved pointer, so a concurrent eviction can never yank a
	// System out from under a running fold or locate. Transitions are
	// serialized by resMu; see residency.go.
	sys atomic.Pointer[core.System]
	zc  zoneConfig

	// Residency machinery: resMu serializes evict/rehydrate transitions
	// (never held on the steady-state hot path); lastTouch is the zone's
	// logical LRU timestamp, written on every touch, scanned only when
	// the service is over its hot cap.
	//
	//tafloc:lock-order 20 zone residency lock; nests inside Service.mu
	resMu     sync.Mutex
	lastTouch atomic.Int64
	// held is the core.Stamp of the Model whose state the residency
	// store last read or wrote for the zone, under resMu (0 = none
	// recorded; always 0 while the zone is cold). See residency.go.
	held uint64

	// per-link ring windows: win holds every sample (a vacant room is a
	// valid live measurement); vwin holds only vacant-flagged samples and
	// feeds the refreshed detection baseline. Fold-task-owned.
	win  []ring[float64]
	vwin []ring[float64]

	cnt *counters

	// Run-state machine, guarded by schedMu. queue holds the accepted
	// report batches no fold round has drained yet, at most QueueDepth of
	// them. foldBusy marks a fold task scheduled or running; locBusy a
	// locate task. pend holds the one coalesced estimate waiting for the
	// locate chain (freshest wins — under sustained overload intermediate
	// rounds are superseded, the same freshness-over-completeness rule
	// the watch streams follow); pend.z is nil when the slot is empty.
	// stopped is set by RemoveZone and
	// UpdateZone; tasks counts the in-flight tasks a lifecycle mutation
	// must wait out.
	//
	//tafloc:lock-order 30 zone scheduler lock; nests inside resMu
	schedMu  sync.Mutex
	queue    fifo[[]Report]
	foldBusy bool
	locBusy  bool
	pend     task
	stopped  bool
	tasks    sync.WaitGroup

	pub *publication
}

// counters is everything a zone counts: the ZoneStats counters and the
// number of reports folded so far. UpdateZone hands the same record to
// the replacement zone, as it does the publication, so the counts
// carry over with no copy.
type counters struct {
	folded uint64 // fold-task-owned

	received    atomic.Uint64
	dropped     atomic.Uint64
	batches     atomic.Uint64
	estimates   atomic.Uint64
	matchErrors atomic.Uint64
	starved     atomic.Uint64

	// Residency counters (see api.ZoneStats for what each one means to
	// an operator).
	evictions       atomic.Uint64
	rehydrates      atomic.Uint64
	rehydrateErrors atomic.Uint64
	evictErrors     atomic.Uint64
}

// publication is everything a zone has published: its latest estimate
// (Position), the watch channels each estimate fans out to, and, when
// the zone's history is on, the history ring, the trajectory filter
// and the track ring behind /history and /track. One mutex guards it
// all, so a publish takes only its own zone's lock. UpdateZone hands
// the same publication to the replacement zone, so watchers, the
// latest position and the track carry over with no copy.
type publication struct {
	//tafloc:lock-order 40 zone publication lock; innermost of the zone locks
	mu       sync.Mutex
	latest   Estimate
	has      bool // latest holds a published estimate
	watchers map[chan Estimate]struct{}
	// The trajectory state; all three are nil when the zone's history
	// is disabled.
	tracker *track.Tracker
	hist    *ring[Estimate]
	trk     *ring[api.TrackPoint]
}

// newPublication builds an empty publication under zc's history
// settings. A non-nil tracker seeds the trajectory filter (the
// warm-restore path); otherwise a fresh one is built when the zone's
// history is enabled.
func newPublication(zc zoneConfig, tracker *track.Tracker) *publication {
	p := &publication{watchers: make(map[chan Estimate]struct{})}
	if zc.history > 0 {
		p.hist = newRing[Estimate](zc.history)
		p.trk = newRing[api.TrackPoint](zc.history)
		p.tracker = tracker
		if p.tracker == nil {
			// zc.trk was validated by newZoneConfig, so this cannot fail.
			p.tracker, _ = track.NewTracker(zc.trk)
		}
	}
	return p
}

// position returns the latest published estimate, if any.
func (p *publication) position() (Estimate, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest, p.has
}

// end terminates the zone's watch streams: each watcher receives a
// terminal Final estimate, sequenced after everything the zone has
// published, and its channel is closed. The set is cleared, so a
// publish that races the end reaches no closed channel. nextSeq draws
// the terminal Seq from the service-wide counter.
func (p *publication) end(id string, nextSeq func(uint64) uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.watchers) == 0 {
		return
	}
	term := Estimate{Zone: id, Seq: nextSeq(1), Cell: -1, Final: true, Time: time.Now()}
	for ch := range p.watchers {
		sendOrDropOldest(ch, term)
		close(ch)
	}
	clear(p.watchers)
}

// Service is the sharded multi-zone localization frontend. Register zones
// with AddZone (before or after Start), launch the executor pool with
// Start, ingest with Ingest, read positions with Position, and stream
// them with Watch. Zones can be added, removed, and swapped at
// runtime. Folding is cheap and runs as soon as a zone has pending
// reports; localization is dispatched to the shared executor pool, so
// thousands of mostly-idle zones cost no goroutines and a hot zone folds
// its next batch while its previous match query is still running.
type Service struct {
	cfg   Config
	defZC zoneConfig // zone configuration for zones added with AddZone

	//tafloc:lock-order 10 service-wide registry lock; outermost in every nesting
	mu    sync.RWMutex // guards the zone table
	zones map[string]*zone

	exec *executor
	// store/lruClock drive the residency tier (residency.go): the
	// service's one snapshot store (Config.Store), and the logical clock
	// behind the approximate LRU.
	store    store.Store
	lruClock atomic.Int64
	seq      atomic.Uint64
	streams  atomic.Int64 // open NDJSON report streams (health gauge)
	started  atomic.Bool  // set by Start, and by Stop: after either, Start fails
	start    time.Time
	runCtx   context.Context // the Start context; parent of every task
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	// hot is the hot set: the registered zones holding a resident
	// System, and the only record of them. HotZones is its length, and
	// the victim scan covers it (at most MaxHotZones+1 zones), not the
	// zone table. A zone joins it in the step that gives it a System,
	// and leaves it in the step that drops the System or unregisters
	// the zone.
	//
	//tafloc:lock-order 25 hot-set lock; nests inside resMu and wraps no lock
	hotMu sync.Mutex
	hot   []*zone
}

// NewService builds an empty service with the given configuration. An
// unknown Config.Detector name, or a MaxHotZones cap with no Store, is
// a taflocerr error (matching taflocerr.ErrBadRequest), never a panic.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxHotZones > 0 && cfg.Store == nil {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: MaxHotZones %d needs a snapshot store to evict into; set Config.Store", cfg.MaxHotZones)
	}
	zc, err := newZoneConfig(cfg.Window, cfg.DetectThresholdDB, cfg.Detector, cfg.History, track.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   cfg,
		defZC: zc,
		zones: make(map[string]*zone),
		store: cfg.Store,
	}
	s.exec = newExecutor()
	return s, nil
}

// newZoneConfig validates and assembles a per-zone configuration.
// window, thrDB, and history must already be normalized (window >= 1,
// thrDB >= 0 with 0 meaning the gate is off, history >= 0 with 0
// meaning history and tracking are disabled); a non-finite thrDB is
// rejected, as a zone gated on NaN or +Inf would never report a target
// present. trk with its zero value, which a version-1 snapshot records,
// selects the default trajectory filter options.
func newZoneConfig(window int, thrDB float64, detector string, history int, trk track.Options) (zoneConfig, error) {
	if window < 1 {
		return zoneConfig{}, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: window must be at least 1, got %d", window)
	}
	if math.IsNaN(thrDB) || math.IsInf(thrDB, 0) {
		return zoneConfig{}, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: detection threshold must be finite, got %v", thrDB)
	}
	if thrDB < 0 {
		thrDB = 0
	}
	if history < 0 {
		history = 0
	}
	if trk == (track.Options{}) {
		trk = track.DefaultOptions()
	}
	if err := trk.Validate(); err != nil {
		return zoneConfig{}, taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: %v", err)
	}
	det, err := core.NewDetectorByName(detector)
	if err != nil {
		return zoneConfig{}, err
	}
	return zoneConfig{
		window:   window,
		thrDB:    thrDB,
		detector: detector,
		det:      det,
		history:  history,
		trk:      trk,
	}, nil
}

// newZone allocates the shard state for sys under id with the given
// per-zone configuration, publishing into pub and counting into cnt.
func (s *Service) newZone(id string, sys *core.System, zc zoneConfig, pub *publication, cnt *counters) *zone {
	m := sys.Layout().M()
	z := &zone{
		id:   id,
		zc:   zc,
		pub:  pub,
		cnt:  cnt,
		win:  make([]ring[float64], m),
		vwin: make([]ring[float64], m),
	}
	z.sys.Store(sys)
	for i := range z.win {
		z.win[i].buf = make([]float64, zc.window)
		z.vwin[i].buf = make([]float64, zc.window)
	}
	return z
}

// stop marks the zone's state machine stopped: scheduled tasks become
// no-ops, no new tasks are accepted, and the coalesced pending estimate
// is dropped. Callers then wait on z.tasks for the in-flight ones.
func (z *zone) stop() {
	z.schedMu.Lock()
	z.stopped = true
	z.pend = task{}
	z.schedMu.Unlock()
}

// isStopped reports whether the zone's state machine has been stopped.
func (z *zone) isStopped() bool {
	z.schedMu.Lock()
	st := z.stopped
	z.schedMu.Unlock()
	return st
}

// AddZone registers a monitored zone backed by sys. It may be called
// before Start or while the service is running — zones are goroutine-free
// state machines, so registration is just a map insert either way. A
// stopped service rejects new zones — their reports could never be
// processed.
func (s *Service) AddZone(id string, sys *core.System) error {
	return s.addZone(id, sys, s.defZC, nil)
}

// addZone is the one registration step behind every way a zone joins
// the service (AddZone, POST /v2/zones/{id}, RestoreZone, Restore and
// PUT /v2/zones/{id}/snapshot): register the zone under an explicit
// per-zone configuration (AddZone passes the service default, a
// restore the snapshot's, along with the snapshot's trajectory-filter
// state), then run the hot-cap pass. A fresh zone is hot by
// construction, so registering it can put the service over its cap.
func (s *Service) addZone(id string, sys *core.System, zc zoneConfig, tracker *track.Tracker) error {
	if id == "" {
		return taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: empty zone id")
	}
	if sys == nil {
		return taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: nil system for zone %q", id)
	}
	s.mu.Lock()
	err := s.stoppedLocked()
	if _, ok := s.zones[id]; ok && err == nil {
		err = ErrZoneExists
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	z := s.newZone(id, sys, zc, newPublication(zc, tracker), new(counters))
	s.touch(z)
	s.zones[id] = z
	s.hotAdd(z)
	// The cap pass writes victims' snapshots to the store; holding the
	// registry lock across that I/O would stall every lookup.
	s.mu.Unlock()
	s.enforceCap()
	return nil
}

// RemoveZone unregisters a zone at runtime: from that moment new
// reports are rejected with ErrUnknownZone and Position no longer
// answers for it; then the zone's in-flight fold/locate tasks are
// waited out, and every watcher receives a terminal Final estimate
// before its channel closes. Reports still queued at that moment are
// dropped. The id may be re-added afterwards.
func (s *Service) RemoveZone(id string) error {
	s.mu.Lock()
	z, ok := s.zones[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownZone
	}
	delete(s.zones, id)
	s.hotDrop(z) // the zone stops counting against the cap now
	s.mu.Unlock()

	// Quiesce outside the lock: an in-flight task may need it (its
	// enforceCap pass read-locks it) before it can finish. No publish
	// can follow the Wait, so the terminal event below is truly terminal.
	z.stop()
	z.tasks.Wait()

	// Residency cleanup, serialized with any in-flight eviction or
	// rehydration through resMu. A rehydrate through a stale reference
	// may have put the zone back in the hot set since it was
	// unregistered; no later one can, as it is stopped. Then make the
	// removal durable by deleting the zone's snapshot from the store —
	// an eviction that raced the removal (its Put completing just
	// before this lock) is erased here, and one that arrives after sees
	// the stopped zone and writes nothing, so a removed zone can never
	// resurrect on the next boot.
	z.resMu.Lock()
	s.hotDrop(z)
	if s.store != nil {
		_ = s.store.Delete(id) // best effort; List/Get failures surface elsewhere
	}
	z.resMu.Unlock()

	z.pub.end(id, s.seq.Add)
	return nil
}

// UpdateZone swaps the core.System behind a zone: the zone's in-flight
// tasks are quiesced (report batches still queued at that moment are
// dropped, as on RemoveZone), the shard state is rebuilt for the new
// system (window lengths follow the new deployment's link count), and
// the fresh state machine picks up on the next report. The replacement
// takes the old zone's configuration, counters and publication by
// pointer — the zone is the same physical space, so its counters, watch
// subscriptions, latest position, history and track survive the swap
// with no copy, and a reader still holding the old zone reads the same
// records. The new System is hot, so UpdateZone then runs the hot-cap
// pass, as every registration does. For an in-place fingerprint
// refresh that keeps the same System, use System(id) and call
// UpdateContext on it instead — that path swaps the zone's Model
// atomically and never pauses serving.
func (s *Service) UpdateZone(id string, sys *core.System) error {
	if sys == nil {
		return taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: nil system for zone %q", id)
	}
	s.mu.RLock()
	err := s.stoppedLocked()
	z, ok := s.zones[id]
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if !ok {
		return ErrUnknownZone
	}

	// Quiesce outside the lock, as RemoveZone does. Before Start there
	// is no task to wait for.
	z.stop()
	z.tasks.Wait()

	s.mu.Lock()
	err = s.stoppedLocked()
	if err == nil && s.zones[id] != z {
		// Lost a race with RemoveZone or another UpdateZone; the zone this
		// call was asked to replace is gone.
		err = ErrUnknownZone
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// resMu orders the old zone's exit from the hot set after any
	// rehydrate that was mid-flight when it stopped.
	z.resMu.Lock()
	s.hotDrop(z)
	z.resMu.Unlock()
	nz := s.newZone(id, sys, z.zc, z.pub, z.cnt)
	s.touch(nz)
	s.zones[id] = nz
	s.hotAdd(nz)
	// As in addZone: the cap pass writes victims' snapshots to the store
	// outside the registry lock.
	s.mu.Unlock()
	s.enforceCap()
	return nil
}

// Zones returns the registered zone IDs in sorted order.
func (s *Service) Zones() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.zones))
	for id := range s.zones {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// System returns the core.System behind a zone, for fingerprint updates
// (System.UpdateContext is safe to run while the zone keeps serving). A cold
// zone is rehydrated first — the caller wants the live Model, and a
// fingerprint update needs somewhere to land. ok is false when the zone
// is unknown or when it is cold and its rehydrate failed (the zone
// stays registered; retry once the store heals).
//
// Hazard: nothing holds the zone hot while an update runs. When the hot
// cap or EvictZone evicts the zone before the update installs its
// Model, the update lands on a System the zone no longer serves: it
// returns nil, but the zone rehydrates into the pre-update state. On a
// service that evicts, call System again once the update returns: the
// zone stayed hot throughout only if it returns the same System, and if
// it returns another, the update may be lost, so run it on that one.
func (s *Service) System(id string) (*core.System, bool) {
	z, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	sys, err := s.ensureHot(z)
	if err != nil {
		return nil, false
	}
	return sys, true
}

// lookup finds a registered zone under the registry read lock. It never
// touches residency, so asking "is this zone registered" (a position
// read, a watch subscription) cannot fault a cold zone's Model back in.
func (s *Service) lookup(id string) (*zone, bool) {
	s.mu.RLock()
	z, ok := s.zones[id]
	s.mu.RUnlock()
	return z, ok
}

// Start launches the shared locate-executor pool: GOMAXPROCS goroutines
// that run every zone's fold and match rounds. Reports queued before
// Start are picked up immediately. When ctx is cancelled or Stop is
// called, the service shuts down (see shutdownLocked). A service
// already started, or stopped before it ever started, fails with a
// taflocerr.CodeStarted error.
func (s *Service) Start(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started.Swap(true) {
		cancel()
		return ErrStarted
	}
	s.cancel = cancel
	s.runCtx = ctx
	s.start = time.Now()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		s.wg.Add(1)
		go s.execWorker()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-ctx.Done()
		s.mu.Lock()
		s.shutdownLocked()
		s.mu.Unlock()
	}()
	for _, z := range s.zones {
		z.schedMu.Lock()
		s.armFoldLocked(z)
		z.schedMu.Unlock()
	}
	return nil
}

// execWorker is one executor-pool goroutine.
func (s *Service) execWorker() {
	defer s.wg.Done()
	for {
		t, ok := s.exec.next()
		if !ok {
			return
		}
		s.runTask(t)
	}
}

// runTask dispatches one executor task.
func (s *Service) runTask(t task) {
	switch t.kind {
	case foldTask:
		s.runFold(t.z)
	case locateTask:
		s.runLocate(t.z, t.sys, t.y, t.e)
	}
}

// stoppedLocked reports whether the service has been stopped (by Stop,
// before or after Start, or by the end of its Start context); zone
// mutations on a stopped service would queue work that never runs.
// Caller holds s.mu.
func (s *Service) stoppedLocked() error {
	if s.started.Load() && (s.runCtx == nil || s.runCtx.Err() != nil) {
		return taflocerr.Errorf(taflocerr.CodeStarted, "serve: service stopped")
	}
	return nil
}

// serviceStopped reports whether the run context has ended. Only called
// from task context, where Start is guaranteed to have happened.
func (s *Service) serviceStopped() bool {
	return s.runCtx.Err() != nil
}

// Stop stops the service for good: it cancels the Start context and
// shuts the service down (see shutdownLocked), so every watch stream
// has received its terminal Final and been closed when Stop returns. A
// service stopped before Start never starts: Start, Watch, AddZone and
// a non-empty Ingest then fail as they do after a running service
// stops. Stop does not wait for the workers; see Wait.
func (s *Service) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
	s.shutdownLocked()
	// Only now, with the executor closed: an Ingest that arms a fold on
	// seeing started set by a Stop before Start must find its submit
	// rejected, not queue a task for workers that never start.
	s.started.Store(true)
}

// shutdownLocked is the one shutdown path, run both by Stop and when
// the Start context ends: close the executor (the workers drain the
// remaining queue, whose tasks are now cheap no-ops, and exit), then
// end every watch stream, each open channel closed after a terminal
// Final estimate, as on zone removal. A second run finds the executor
// closed and no watcher left. Caller holds s.mu for writing, so no
// Watch can subscribe to a zone already swept.
func (s *Service) shutdownLocked() {
	s.exec.close()
	for id, z := range s.zones {
		z.pub.end(id, s.seq.Add)
	}
}

// Wait blocks until the executor pool has exited.
func (s *Service) Wait() { s.wg.Wait() }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.runCtx == nil {
		return 0
	}
	return time.Since(s.start)
}

// Position returns the most recent estimate for a zone. The read finds
// the zone under the registry read lock and copies the estimate under
// the zone's publication lock, so it waits only on registry changes
// (add, remove, update, Stop) and on that zone's own publish — never
// on ingestion, reconstruction or other zones. ok is false when the
// zone is unknown (or being removed) or has not published yet.
func (s *Service) Position(id string) (Estimate, bool) {
	z, ok := s.lookup(id)
	if !ok {
		return Estimate{}, false
	}
	return z.pub.position()
}

// Positions returns the latest estimate of every registered zone that
// has published, each read as Position reads it. The returned map is
// the reader's own copy.
func (s *Service) Positions() map[string]Estimate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]Estimate, len(s.zones))
	for id, z := range s.zones {
		if e, ok := z.pub.position(); ok {
			out[id] = e
		}
	}
	return out
}

// Watch subscribes to a zone's estimate stream. The returned channel
// receives the zone's current estimate immediately (if one is
// published), then every estimate the zone publishes. A watcher that
// falls more than 16 events behind misses the oldest ones — the stream
// favours freshness over completeness. When the zone is removed or the
// service stops, the channel receives a terminal estimate with Final
// set and is closed. The returned stop function detaches the subscription;
// it is idempotent and must be called when the caller is done.
func (s *Service) Watch(id string) (<-chan Estimate, func(), error) {
	// Subscribe under the read lock: RemoveZone unregisters a zone and
	// the shutdown sweeps the zones under the write lock, so a
	// subscription either lands first and is ended with the others, or
	// fails.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.stoppedLocked(); err != nil {
		// A stopped service has no publishers left; a subscription would
		// block its consumer forever.
		return nil, nil, err
	}
	z, ok := s.zones[id]
	if !ok {
		return nil, nil, ErrUnknownZone
	}
	p := z.pub
	ch := make(chan Estimate, watchBuffer)
	p.mu.Lock()
	p.watchers[ch] = struct{}{}
	if p.has {
		ch <- p.latest // buffer is empty here, cannot block
	}
	p.mu.Unlock()
	stop := func() {
		p.mu.Lock()
		delete(p.watchers, ch)
		p.mu.Unlock()
	}
	return ch, stop, nil
}

// Stats returns per-zone counters.
func (s *Service) Stats() map[string]ZoneStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]ZoneStats, len(s.zones))
	for id, z := range s.zones {
		z.schedMu.Lock()
		queued := z.queue.len()
		z.schedMu.Unlock()
		out[id] = ZoneStats{
			Received:        z.cnt.received.Load(),
			Dropped:         z.cnt.dropped.Load(),
			Batches:         z.cnt.batches.Load(),
			Estimates:       z.cnt.estimates.Load(),
			MatchErrors:     z.cnt.matchErrors.Load(),
			Starved:         z.cnt.starved.Load(),
			QueueLen:        queued,
			Cold:            z.sys.Load() == nil,
			Evictions:       z.cnt.evictions.Load(),
			Rehydrates:      z.cnt.rehydrates.Load(),
			RehydrateErrors: z.cnt.rehydrateErrors.Load(),
			EvictErrors:     z.cnt.evictErrors.Load(),
		}
	}
	return out
}

// armFoldLocked arms the zone's fold stage when reports are queued, no
// fold is armed, and Start has set started. Before that it does
// nothing: Start arms every zone with a backlog. Caller holds
// z.schedMu.
func (s *Service) armFoldLocked(z *zone) {
	if !z.stopped && !z.foldBusy && z.queue.len() > 0 && s.started.Load() {
		z.foldBusy = s.submitLocked(task{z: z, kind: foldTask})
	}
}

// submitLocked counts t as one of its zone's in-flight tasks and hands
// it to the executor. Once the executor is closed (the service is
// stopping) it uncounts the task and returns false, and the caller
// leaves its busy flag down: the work is dropped, as shutdown drops
// queued reports. Caller holds t.z.schedMu.
func (s *Service) submitLocked(t task) bool {
	t.z.tasks.Add(1)
	if s.exec.submit(t) {
		return true
	}
	t.z.tasks.Done()
	return false
}

// foldBatch is the number of reports after which a fold round stops
// draining the zone's queue and prepares its estimate.
const foldBatch = 64

// runFold is one fold round: drain up to foldBatch reports from the
// zone's queue into the live windows, average them into a live vector,
// gate on presence, and hand the prepared estimate to the locate stage.
// The scheduling invariant (one fold task in flight per zone) makes the
// fold state single-writer without locks; only the pops take schedMu.
// The round then disarms the fold stage, or re-arms it when reports
// arrived meanwhile (Ingest saw foldBusy and did not arm). On a stopped
// service the round drains nothing and does not re-arm: the executor
// is closing, and shutdown drops the queued reports.
func (s *Service) runFold(z *zone) {
	defer z.tasks.Done()
	live := !s.serviceStopped()
	drained := 0
	for live && drained < foldBatch {
		z.schedMu.Lock()
		batch, ok := z.queue.pop()
		ok = ok && !z.stopped // a stopped zone folds nothing more
		z.schedMu.Unlock()
		if !ok {
			break
		}
		drained += s.fold(z, batch)
	}
	if drained > 0 {
		s.prepareEstimate(z)
	}
	z.schedMu.Lock()
	z.foldBusy = false
	if live {
		s.armFoldLocked(z)
	}
	z.schedMu.Unlock()
}

// fold applies a batch to the zone's per-link ring windows and returns
// the number of reports consumed. Every sample feeds the live window (a
// vacant room is a valid live measurement, so detection sees the target
// leave); vacant-flagged samples additionally refresh the detection
// baseline.
func (s *Service) fold(z *zone, batch []Report) int {
	for _, r := range batch {
		z.win[r.Link].push(r.RSS)
		if r.Vacant {
			z.vwin[r.Link].push(r.RSS)
		}
	}
	z.cnt.folded += uint64(len(batch))
	return len(batch)
}

// prepareEstimate closes a fold round: average the live windows into a
// fresh vector, count starvation when some link has never reported
// (operators can then tell "no estimate" from "no traffic" on the
// Starved stat), gate on presence, and pass the estimate to the locate
// stage. Absent estimates skip matching but still travel the locate
// chain, which keeps per-zone publish order strict.
func (s *Service) prepareEstimate(z *zone) {
	y := make([]float64, len(z.win))
	z.cnt.batches.Add(1)
	for i := range z.win {
		if z.win[i].n == 0 {
			// Some link has never reported: no estimate is possible yet.
			z.cnt.starved.Add(1)
			return
		}
		y[i] = windowMean(&z.win[i])
	}
	// Resolve the zone's System once for the whole fold→locate round and
	// thread it through the task chain: detection and localization then
	// run against one consistent Model even if the zone is evicted (or
	// updated) mid-round. The ingest path already rehydrated, so this
	// only pays a store read when an eviction squeezed in between; a
	// rehydrate failure here ends the round (the error is counted and
	// the next round retries) rather than publishing anything.
	sys, err := s.ensureHot(z)
	if err != nil {
		return
	}
	present, dev := s.detect(z, sys, y)
	e := Estimate{
		Zone:        z.id,
		Present:     present,
		DeviationDB: dev,
		Cell:        -1,
		Reports:     z.cnt.folded,
	}
	s.dispatchLocate(z, sys, y, e)
}

// dispatchLocate hands a prepared estimate to the zone's locate stage.
// When a locate is already in flight the estimate is coalesced into the
// single pending slot (freshest wins), so a zone whose match queries
// are slower than its ingest folds ahead without queueing unbounded
// work — and the fold stage never blocks on the locate stage.
func (s *Service) dispatchLocate(z *zone, sys *core.System, y []float64, e Estimate) {
	t := task{z: z, kind: locateTask, sys: sys, y: y, e: e}
	z.schedMu.Lock()
	switch {
	case z.stopped:
		// A stopped zone publishes nothing more: drop the round.
	case z.locBusy:
		z.pend = t
	default:
		z.locBusy = s.submitLocked(t)
	}
	z.schedMu.Unlock()
}

// runLocate is the zone's locate stage: run the match query against the
// zone's current Model (one atomic load, no locks — the executor
// workers all read shared Models concurrently), publish, and loop onto
// the coalesced pending estimate if one arrived meanwhile.
func (s *Service) runLocate(z *zone, sys *core.System, y []float64, e Estimate) {
	defer z.tasks.Done()
	published := false
	for {
		if !s.serviceStopped() && !z.isStopped() {
			ok := true
			if e.Present {
				loc, err := sys.Locate(y)
				if err != nil {
					z.cnt.matchErrors.Add(1)
					ok = false
				} else {
					e.Cell = loc.Cell
					e.Point = loc.Point
					e.Distance = loc.Distance
					e.Confidence = loc.Confidence
				}
			}
			if ok {
				s.publish(z, e)
				z.cnt.estimates.Add(1)
				published = true
			}
		}
		z.schedMu.Lock()
		if z.stopped || z.pend.z == nil {
			z.locBusy = false
			z.schedMu.Unlock()
			// Publishing marked this zone recently used; evict colder
			// ones if the service is over its hot cap. Off the locked
			// publish path: one atomic load when under cap.
			if published {
				s.enforceCap()
			}
			return
		}
		sys, y, e = z.pend.sys, z.pend.y, z.pend.e
		z.pend = task{}
		z.schedMu.Unlock()
	}
}

// detect gates localization on target presence through the zone's
// detector. When every link has received vacant-flagged samples, the
// mean of those windows is a fresher baseline than the system's last
// vacant capture and is used instead, so detection tracks drift between
// fingerprint updates. A zone with a zero threshold has the gate
// disabled: the deviation is still computed (and published), but the
// target always counts as present.
func (s *Service) detect(z *zone, sys *core.System, y []float64) (bool, float64) {
	vac := sys.Vacant()
	fresh := true
	for i := range z.vwin {
		if z.vwin[i].n == 0 {
			fresh = false
			break
		}
	}
	if fresh {
		for i := range z.vwin {
			vac[i] = windowMean(&z.vwin[i])
		}
	}
	if z.zc.thrDB <= 0 {
		// Gate disabled. The detector still supplies the deviation signal;
		// the threshold passed is irrelevant because the verdict is ignored.
		_, dev := z.zc.det(vac, 1).Present(y)
		return true, dev
	}
	return z.zc.det(vac, z.zc.thrDB).Present(y)
}

// publish makes e the zone's latest estimate, fans it out to the zone's
// watchers, and records it into the zone's trajectory state, all under
// the zone's publication lock alone: a publish never waits on Ingest,
// on the registry, or on another zone. Seq comes from the service-wide
// counter inside that lock, so a zone's estimates carry increasing Seqs
// in publish order. The publish time is wall clock only (Round strips
// the monotonic reading): the trajectory filter derives dt from it, and
// the wall clock is what survives the wire — replaying served history
// timestamps must reproduce the served track exactly.
func (s *Service) publish(z *zone, e Estimate) {
	e.Time = time.Now().Round(0)
	p := z.pub
	p.mu.Lock()
	e.Seq = s.seq.Add(1)
	p.latest, p.has = e, true
	for ch := range p.watchers {
		sendOrDropOldest(ch, e)
	}
	p.record(e)
	p.mu.Unlock()
	s.touch(z)
}

// sendOrDropOldest delivers e to a watcher channel without ever blocking
// the publishing worker: when the buffer is full, the oldest pending
// event is discarded to make room. Senders are serialized under the
// zone's publication lock, so the drain/retry pair cannot race another
// sender; a concurrent receiver can only make room, in which case the
// retry succeeds.
func sendOrDropOldest(ch chan Estimate, e Estimate) {
	select {
	case ch <- e:
		return
	default:
	}
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- e:
	default:
	}
}
