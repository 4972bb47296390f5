// Command tafloc-serve runs the concurrent multi-zone localization
// service over HTTP: it builds one independent TafLoc system per
// monitored zone, starts the sharded serving layer, and (by default)
// drives simulated targets walking through every zone so the endpoints
// return live estimates out of the box. The simulator talks to the
// service the same way any consumer would — through the typed client
// SDK over HTTP — so the served surface is exercised end to end.
//
// Endpoints (see docs/API.md for the full protocol):
//
//	POST   /v1/report, /v2/report       ingest a batch of RSS reports
//	POST   /v2/zones/{id}/reports:stream persistent NDJSON ingest stream
//	GET    /v1/zones, /v2/zones         list zone IDs
//	GET    /v{1,2}/zones/{id}/position  latest estimate for a zone
//	GET    /v2/zones/{id}/track         smoothed trajectory + velocity
//	GET    /v2/zones/{id}/history       raw published-estimate history
//	POST   /v2/zones/{id}               create a zone at runtime (ZoneSpec body)
//	DELETE /v2/zones/{id}               remove a zone at runtime
//	GET    /v2/zones/{id}/watch         stream estimates over SSE
//	GET    /v1/healthz, /v2/healthz     liveness and per-zone counters
//
// A ZoneSpec may ask for at most 3600 cells and 64 links; a larger one
// is rejected as a bad request before anything is built.
//
// With -state-dir the service is stateful across restarts: every zone's
// calibrated deployment (layout, mask, radio map, vacant baseline,
// reference cells, serve config) is checkpointed to versioned,
// CRC-checked snapshot files — periodically (-checkpoint) and once more
// on SIGINT/SIGTERM — and the next boot warm-starts every snapshot it
// finds instead of recalibrating, so a deploy or crash costs seconds of
// blindness, not minutes. See docs/PERSISTENCE.md for the format and
// semantics.
//
// Usage:
//
//	tafloc-serve                          # 4 zones on :8750, simulated traffic
//	tafloc-serve -zones 8 -addr :9000     # 8 zones on :9000
//	tafloc-serve -matcher bayes           # probabilistic matcher for new zones
//	tafloc-serve -sim=false               # serve only; feed reports yourself
//	tafloc-serve -interval 20ms           # faster simulated reporting
//	tafloc-serve -state-dir /var/lib/tafloc   # checkpoint + warm restart
//	tafloc-serve -state-dir ./state -checkpoint 10s
//	tafloc-serve -zones 64 -max-hot-zones 8   # tiered storage: at most 8 resident models
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"tafloc"
	"tafloc/client"
	"tafloc/taflocerr"
)

// zoneFactory builds simulated deployments for zones created at startup
// or over POST /v2/zones/{id}, remembering each zone's deployment so the
// simulator can sample its channel.
type zoneFactory struct {
	matcher string
	days    float64
	svc     *tafloc.Service // set after NewService; nil only during startup wiring

	mu   sync.Mutex
	deps map[string]*tafloc.Deployment
}

func (f *zoneFactory) build(_ context.Context, id string, spec tafloc.ZoneSpec) (*tafloc.System, error) {
	// Refuse ids that are already registered before building anything:
	// AddZone would reject the duplicate anyway, but by then this factory
	// would have overwritten the existing zone's deployment in f.deps and
	// desynchronized the simulator from the served database.
	if f.svc != nil {
		for _, z := range f.svc.Zones() {
			if z == id {
				return nil, taflocerr.Errorf(taflocerr.CodeZoneExists,
					"tafloc-serve: zone %q already exists", id)
			}
		}
	}
	cfg := tafloc.PaperConfig()
	if spec.Width > 0 && spec.Height > 0 {
		cfg.RoomW, cfg.RoomH = spec.Width, spec.Height
	}
	if spec.Links > 0 {
		cfg.Links = spec.Links
	}
	if spec.CellSize > 0 {
		cfg.CellSize = spec.CellSize
	}
	if err := checkZoneSize(cfg); err != nil {
		return nil, err
	}
	dep, err := tafloc.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	// The zone's day-0 survey happens at the requested environment age
	// (spec.Days, defaulting to the -days flag), so a zone created late
	// in a drifted environment starts from a matching database.
	days := f.days
	if spec.Days > 0 {
		days = spec.Days
	}
	layout, err := tafloc.NewLayout(dep.Channel.Links(), dep.Grid, cfg.RF.MaskExcessM())
	if err != nil {
		return nil, err
	}
	survey, _ := dep.Survey(days)
	sys, err := tafloc.Open(layout, survey, dep.VacantCapture(days, 100),
		tafloc.WithMatcher(f.matcher))
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.deps[id] = dep
	f.mu.Unlock()
	return sys, nil
}

// maxZoneCells and maxZoneLinks bound the deployment one ZoneSpec can
// ask for: a zone's survey and calibration grow with cells and links.
// 3600 cells is the paper's largest area (36 m x 36 m at 0.6 m cells,
// about 5 s to build), which SquareConfig covers with 50 links.
const (
	maxZoneCells = 3600
	maxZoneLinks = 64
)

// checkZoneSize rejects a deployment over the caps before anything is
// built. The cell count is the grid's, computed in float64 so that a
// tiny cell size cannot overflow it.
func checkZoneSize(cfg tafloc.TestbedConfig) error {
	cells := math.Floor(cfg.RoomW/cfg.CellSize) * math.Floor(cfg.RoomH/cfg.CellSize)
	if !(cells <= maxZoneCells) || cfg.Links > maxZoneLinks {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"tafloc-serve: zone of %g cells and %d links exceeds the caps of %d cells and %d links",
			cells, cfg.Links, maxZoneCells, maxZoneLinks)
	}
	return nil
}

func (f *zoneFactory) deployment(id string) (*tafloc.Deployment, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dep, ok := f.deps[id]
	return dep, ok
}

// config is the parsed command line plus which flags were set
// explicitly (so combination warnings fire only on deliberate choices,
// not defaults).
type config struct {
	addr          string
	zones         int
	days          float64
	interval      time.Duration
	window        int
	threshold     float64
	matcher       string
	detector      string
	sim           bool
	locateWorkers int
	stateDir      string
	checkpoint    time.Duration
	maxHotZones   int

	set map[string]bool
}

func parseFlags(args []string) (*config, error) {
	cfg := &config{set: make(map[string]bool)}
	fs := flag.NewFlagSet("tafloc-serve", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8750", "HTTP listen address")
	fs.IntVar(&cfg.zones, "zones", 4, "number of monitored zones")
	fs.Float64Var(&cfg.days, "days", 0, "simulated environment age in days")
	fs.DurationVar(&cfg.interval, "interval", 100*time.Millisecond, "simulated report interval per zone")
	fs.IntVar(&cfg.window, "window", 8, "per-link live window length")
	fs.Float64Var(&cfg.threshold, "threshold", 0.25, "detection threshold in dB")
	fs.StringVar(&cfg.matcher, "matcher", "wknn",
		fmt.Sprintf("localization matcher %v", tafloc.MatcherNames()))
	fs.StringVar(&cfg.detector, "detector", "mad",
		fmt.Sprintf("presence detector %v", tafloc.DetectorNames()))
	fs.BoolVar(&cfg.sim, "sim", true, "drive simulated targets through every zone via the client SDK")
	fs.IntVar(&cfg.locateWorkers, "locate-workers", 0, "shared locate-executor pool size; zones are goroutine-free state machines scheduled onto it (0 = GOMAXPROCS, negative = single worker)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "directory for deployment snapshots: checkpoint zones there and warm-restore them on boot")
	fs.DurationVar(&cfg.checkpoint, "checkpoint", 30*time.Second, "checkpoint interval when -state-dir is set")
	fs.IntVar(&cfg.maxHotZones, "max-hot-zones", 0, "cap on zones holding a resident model; over the cap the least-recently-used zone is checkpointed and dropped, rehydrating transparently on its next request (0 = no cap)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })
	return cfg, nil
}

// validate rejects unusable flag values and combinations with
// taxonomy-coded errors, and warns about legal-but-surprising
// combinations (flags that will be silently ignored, or non-durable
// defaults chosen implicitly).
func (cfg *config) validate() error {
	if cfg.zones < 1 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"-zones: need at least one zone, got %d", cfg.zones)
	}
	if cfg.window < 1 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"-window: need a positive live window length, got %d", cfg.window)
	}
	if cfg.interval <= 0 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"-interval: need a positive report interval, got %v", cfg.interval)
	}
	// Validate the strategy flags up front so a CLI typo is a clean
	// usage failure instead of a construction error.
	if !contains(tafloc.DetectorNames(), cfg.detector) {
		return taflocerr.Errorf(taflocerr.CodeUnsupported,
			"-detector: unknown detector %q; registered: %v", cfg.detector, tafloc.DetectorNames())
	}
	if !contains(tafloc.MatcherNames(), cfg.matcher) {
		return taflocerr.Errorf(taflocerr.CodeUnsupported,
			"-matcher: unknown matcher %q; registered: %v", cfg.matcher, tafloc.MatcherNames())
	}
	if cfg.maxHotZones < 0 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"-max-hot-zones: need a non-negative cap, got %d", cfg.maxHotZones)
	}
	if cfg.stateDir != "" && cfg.checkpoint <= 0 {
		return taflocerr.Errorf(taflocerr.CodeBadRequest,
			"-checkpoint: need a positive interval with -state-dir, got %v", cfg.checkpoint)
	}
	if cfg.maxHotZones > 0 && cfg.stateDir == "" {
		log.Printf("warning: -max-hot-zones without -state-dir: evicted zones snapshot to the in-process memory store, so eviction saves model RAM but cold state does not survive a restart; set -state-dir for durable tiering")
	}
	if cfg.set["checkpoint"] && cfg.stateDir == "" {
		log.Printf("warning: -checkpoint is ignored without -state-dir; no periodic checkpoints will run")
	}
	if cfg.set["interval"] && !cfg.sim {
		log.Printf("warning: -interval is ignored with -sim=false; it only paces the built-in simulator")
	}
	return nil
}

// storeBackend names the effective snapshot store the tiering layer
// will evict into, for the startup banner.
func (cfg *config) storeBackend() string {
	if cfg.stateDir != "" {
		return "dir store " + cfg.stateDir
	}
	return "in-process memory store (non-durable)"
}

func main() {
	log.SetFlags(0)
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		// ExitOnError: Parse only returns on -h/-help after printing usage.
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		log.Fatalf("tafloc-serve: %v [code=%s]", err, taflocerr.CodeOf(err))
	}
}

func run(cfg *config) error {
	if err := cfg.validate(); err != nil {
		return err
	}

	factory := &zoneFactory{matcher: cfg.matcher, days: cfg.days, deps: make(map[string]*tafloc.Deployment)}
	// One handle on the state directory serves restore, eviction, and the
	// checkpointer: checkpointing into the residency store's own handle
	// is what lets a checkpoint leave cold zones' files alone.
	var state tafloc.SnapshotStore
	if cfg.stateDir != "" {
		state = tafloc.NewDirStore(cfg.stateDir)
	}
	opts := []tafloc.ServiceOption{
		tafloc.WithWindow(cfg.window),
		tafloc.WithDetectThreshold(cfg.threshold),
		tafloc.WithDetector(cfg.detector),
		tafloc.WithZoneFactory(factory.build),
	}
	if cfg.locateWorkers != 0 {
		opts = append(opts, tafloc.WithLocateWorkers(cfg.locateWorkers))
	}
	if cfg.maxHotZones > 0 {
		opts = append(opts, tafloc.WithMaxHotZones(cfg.maxHotZones))
		if state != nil {
			// Evicted zones checkpoint into the same directory the
			// periodic checkpointer uses, so cold state doubles as
			// crash-recovery state.
			opts = append(opts, tafloc.WithSnapshotStore(state))
		}
	}
	svc, err := tafloc.NewService(opts...)
	if err != nil {
		return err
	}
	factory.svc = svc

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Warm start: every snapshot in the state directory restores a zone
	// without recalibration — the calibrated radio map, mask, references,
	// and per-zone serve config come straight off disk.
	restored := make(map[string]bool)
	if state != nil {
		ids, err := svc.RestoreStore(state)
		if err != nil {
			// Damaged snapshots are reported and skipped; the healthy
			// zones (and freshly surveyed ones) still serve.
			log.Printf("state-dir: %v", err)
		}
		for _, id := range ids {
			restored[id] = true
			fmt.Printf("%s: warm-restored from %s\n", id, cfg.stateDir)
		}
	}

	// One independent deployment and system per zone. Day-0 surveys are
	// the expensive part of startup; each zone pays it once — unless a
	// snapshot already covers it.
	for i := 0; i < cfg.zones; i++ {
		id := fmt.Sprintf("zone-%d", i)
		if restored[id] {
			continue
		}
		sys, err := factory.build(ctx, id, tafloc.ZoneSpec{})
		if err != nil {
			return err
		}
		if err := svc.AddZone(id, sys); err != nil {
			return err
		}
		dep, _ := factory.deployment(id)
		fmt.Printf("%s: %d links over %d cells, %d reference locations\n",
			id, dep.Channel.M(), dep.Grid.Cells(), len(sys.References()))
	}

	if err := svc.Start(ctx); err != nil {
		return err
	}
	if state != nil {
		// Interval checkpoints plus a final one when ctx is cancelled
		// (SIGINT/SIGTERM), so a clean stop persists fully current state.
		if err := svc.StartCheckpointer(ctx, state, cfg.checkpoint, func(err error) {
			log.Printf("checkpoint: %v", err)
		}); err != nil {
			return err
		}
		fmt.Printf("checkpointing zones to %s every %v\n", cfg.stateDir, cfg.checkpoint)
	}
	if cfg.maxHotZones > 0 {
		fmt.Printf("hot-zone cap: %d resident models, evicting LRU zones to %s\n",
			cfg.maxHotZones, cfg.storeBackend())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return taflocerr.Errorf(taflocerr.CodeBadRequest, "-addr: listen on %s: %w", cfg.addr, err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go func() {
		<-ctx.Done()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer shutCancel()
		_ = server.Shutdown(shutCtx)
	}()

	if cfg.sim {
		baseURL := dialableURL(ln.Addr())
		go func() {
			cli, err := client.Dial(ctx, baseURL)
			if err != nil {
				log.Printf("simulator: %v", err)
				return
			}
			for i := 0; i < cfg.zones; i++ {
				id := fmt.Sprintf("zone-%d", i)
				dep, ok := factory.deployment(id)
				if !ok {
					// Warm-restored zones serve the snapshot's radio map;
					// this process has no channel simulator matched to it,
					// so it cannot generate faithful traffic for them.
					log.Printf("simulator: %s was restored from a snapshot; not simulating", id)
					continue
				}
				go simulateZone(ctx, cli, dep, id, cfg.days, cfg.interval)
			}
		}()
		fmt.Printf("simulating one walking target per zone every %v (reports via %s)\n",
			cfg.interval, baseURL)
	}

	fmt.Printf("serving %d zones on %s (matcher %s, detector %s, parallel workers: %d)\n",
		cfg.zones, ln.Addr(), cfg.matcher, cfg.detector, runtime.GOMAXPROCS(0))
	if err := server.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	svc.Stop()
	svc.Wait()
	return nil
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// dialableURL turns a listener address into a loopback base URL (a
// wildcard listen address is not dialable as-is).
func dialableURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if host == "" || host == "::" || host == "0.0.0.0" || strings.HasPrefix(host, "%") {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// simulateZone walks a target on a Lissajous path through the zone and
// feeds its RSS samples through a client.Reporter: one persistent
// NDJSON ingest stream per zone instead of one HTTP round trip per
// tick, with batching, shedding, and reconnects handled by the SDK.
// Each zone has its own deployment, so the (non-concurrency-safe)
// channel sampler is only touched here.
func simulateZone(ctx context.Context, cli *client.Client, dep *tafloc.Deployment, id string, days float64, interval time.Duration) {
	m := dep.Channel.M()
	rep, err := cli.NewReporter(ctx, id,
		// Flush once per tick's worth of samples so estimate latency
		// matches the old per-request behavior.
		client.WithReporterBatch(m),
		client.WithReporterInterval(interval))
	if err != nil {
		log.Printf("simulator %s: %v", id, err)
		return
	}
	defer rep.Close()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	t := 0.0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		t += interval.Seconds()
		p := tafloc.Point{
			X: dep.Grid.Width * (0.5 + 0.4*math.Sin(0.23*t)),
			Y: dep.Grid.Height * (0.5 + 0.4*math.Sin(0.31*t+1)),
		}
		y := dep.Channel.MeasureLive(p, days)
		batch := make([]client.Report, len(y))
		for i, v := range y {
			batch[i] = client.Report{Link: i, RSS: v}
		}
		// Overload and removal both surface as shed/rejected counts in
		// the reporter's stats, not errors: the service's bounded queues
		// are the backpressure mechanism.
		_ = rep.Send(batch...)
	}
}
