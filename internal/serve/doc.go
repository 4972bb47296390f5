// Package serve implements the concurrent multi-zone localization
// service: the layer that turns the single-deployment TafLoc pipeline
// into a serving system for many monitored areas at once.
//
// A Service owns one independent core.System per monitored zone (a room,
// a corridor, a floor section — each with its own link deployment and
// fingerprint database). RSS reports enter through a bounded per-zone
// work queue, but zones own no goroutines: each is a small run-state
// machine scheduled onto a shared locate-executor pool of
// Config.LocateWorkers goroutines (default GOMAXPROCS). A fold round
// drains the queue in batches and folds the samples into per-link live
// windows; the match query runs once per round rather than once per
// report, dispatched as a separate locate task, so a burst of traffic
// costs one localization instead of dozens, ten thousand mostly-idle
// zones cost zero goroutines, and a hot zone folds its next batch while
// its previous match query is still running (successive rounds coalesce
// into one pending estimate — freshest wins — when matching is the
// bottleneck). A fold round in which some link has never reported
// publishes nothing and increments the zone's Starved counter, so
// operators can tell a silent link from an empty room.
//
// Every report transport converges on one ingestion surface, the
// Ingestor interface (implemented by *Service.Ingest): in-process
// callers, the UDP collector forwarding batch datagrams through
// IngestSink, the per-request POST /v2/report handler, and the
// persistent NDJSON stream endpoint all share the same validation,
// bounded-queue load shedding, and per-zone counters — a batch is
// counted and shed identically no matter how it arrived.
//
// Position queries never touch the ingest path: each zone's most recent
// estimate lives in the zone's own publication, next to its watchers
// and its history and track. Publishing an estimate takes only that
// zone's lock, and a position read finds the zone under the registry
// read lock and copies the estimate under the zone's lock, so it waits
// only on registry changes (add, remove, update, Stop) and on that
// zone's own publish — never on ingestion, reconstruction, or other
// zones. Localization itself is lock-free: every zone's calibrated
// read state is an immutable core.Model behind an atomic pointer, so
// any number of executor workers match against the same zone
// concurrently while LoLi-IR updates swap in fresh Models underneath
// them (see docs/ARCHITECTURE.md).
//
// The reconstruction work underneath (matrix products and the LoLi-IR
// initialization) is parallelized in internal/mat and internal/core
// with GOMAXPROCS-aware worker pools, so one heavy zone update uses the
// whole machine while the executor pool keeps serving the other zones.
// Matching runs serially per query; the executor pool supplies the
// parallelism across queries and zones.
//
// Zones are first-class at runtime: AddZone registers a zone into a
// running service, RemoveZone quiesces and removes one (rejecting new
// reports and position reads, and terminating watch streams with a
// Final estimate), and UpdateZone swaps the backing core.System
// atomically while counters, watch subscriptions, the latest position
// and the track survive. Watch subscribes a buffered channel to a
// zone's estimate stream, fed by the same per-zone publish that sets
// the zone's position.
//
// The HTTP surface (Handler) serves two versions side by side. The
// frozen /v1 routes (byte-identical responses, pinned by fixture
// tests):
//
//	POST /v1/report              ingest a batch of reports for one zone
//	GET  /v1/zones               sorted zone IDs
//	GET  /v1/zones/{id}/position the zone's latest estimate
//	GET  /v1/healthz             service liveness and per-zone counters
//
// And the /v2 routes, which add taflocerr error codes on every failure,
// runtime zone lifecycle, streaming ingest, trajectory queries, a
// server-sent-events watch stream, and deployment snapshots:
//
//	POST   /v2/report              as /v1, but a bad link index is 422 + code
//	POST   /v2/zones/{id}/reports:stream  persistent NDJSON ingest: one batch per
//	                               line, per-line acks, summary trailer (docs/API.md)
//	GET    /v2/zones               sorted zone IDs
//	POST   /v2/zones/{id}          create a zone via the configured ZoneFactory
//	DELETE /v2/zones/{id}          remove a zone at runtime
//	GET    /v2/zones/{id}/position the zone's latest estimate
//	GET    /v2/zones/{id}/track    smoothed trajectory + velocity (?n=K samples)
//	GET    /v2/zones/{id}/history  raw published-estimate ring (?n=K samples)
//	GET    /v2/zones/{id}/watch    SSE estimate stream (see docs/API.md)
//	GET    /v2/zones/{id}/snapshot export the calibrated deployment (binary)
//	PUT    /v2/zones/{id}/snapshot warm-start a zone from an uploaded snapshot
//	GET    /v2/healthz             liveness and per-zone counters
//
// Trajectories are first-class: each zone's publish path appends every
// estimate to a bounded history ring and folds present fixes through a
// constant-velocity Kalman filter (internal/track), so /track serves a
// smoothed path with velocity — what the paper's motivating
// applications (elderly care, intruder tracking) actually consume — and
// the filter state travels inside zone snapshots, so a warm-restarted
// zone resumes its track.
//
// Zones persist across restarts: SnapshotZone/RestoreZone round-trip a
// zone's calibrated deployment (and its per-zone serve config) through
// the versioned, CRC-checked binary codec in internal/snap,
// CheckpointStore and RestoreStore do it for every zone through an
// internal/store.Store (store.Dir for a state directory), and
// StartCheckpointer runs the background loop cmd/tafloc-serve exposes
// as -state-dir — interval checkpoints plus a final one on shutdown. A restored zone publishes estimates identical
// to the never-restarted one; see docs/PERSISTENCE.md.
//
// Package client is the typed SDK for the /v2 surface; the wire types
// live in internal/api and the error taxonomy in tafloc/taflocerr.
//
// cmd/tafloc-serve wires the service to simulated deployments end to end.
package serve
