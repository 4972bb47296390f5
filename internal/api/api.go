// Package api holds the wire data types shared by the service's HTTP
// surface (internal/serve) and the typed client SDK (package client).
// Keeping one definition of every request and response body guarantees
// the two sides cannot drift: the server marshals and the client
// unmarshals the same structs.
//
// JSON field order and tags on Report, Estimate, and ZoneStats are part
// of the frozen /v1 contract — new fields may only be appended with
// omitempty so that /v1 responses stay byte-identical.
package api

import (
	"time"

	"tafloc/internal/geom"
	"tafloc/taflocerr"
)

// Report is one RSS sample addressed to one link of a zone.
type Report struct {
	// Link is the link index within the zone's deployment.
	Link int `json:"link"`
	// RSS is the sample in dBm.
	RSS float64 `json:"rss"`
	// Vacant marks a sample known to be taken with no target present.
	// Vacant samples additionally refresh the zone's vacant baseline, so
	// presence detection tracks environmental drift between fingerprint
	// updates.
	Vacant bool `json:"vacant,omitempty"`
}

// Estimate is a zone's position estimate, as published by the zone,
// served as its latest position and streamed to watchers.
type Estimate struct {
	// Zone is the zone ID the estimate belongs to.
	Zone string `json:"zone"`
	// Seq comes from one service-wide counter that increases by one per
	// published estimate; a zone's estimates carry increasing Seqs in
	// publish order, so readers can order them and detect staleness.
	Seq uint64 `json:"seq"`
	// Present reports whether the detection gate saw a target; when it is
	// false the location fields are zero and Cell is -1.
	Present bool `json:"present"`
	// DeviationDB is the live vector's mean absolute deviation from the
	// zone's vacant baseline (the detection signal).
	DeviationDB float64 `json:"deviation_db"`
	// Cell is the best-matching grid cell (-1 when absent).
	Cell int `json:"cell"`
	// Point is the fine-grained position estimate in metres.
	Point geom.Point `json:"point"`
	// Distance is the fingerprint-space distance of the winning match.
	Distance float64 `json:"distance"`
	// Confidence is the matcher's posterior mass when it computes one.
	Confidence float64 `json:"confidence,omitempty"`
	// Reports is the total number of reports the zone had consumed when
	// the estimate was computed.
	Reports uint64 `json:"reports"`
	// Time is when the estimate was published.
	Time time.Time `json:"time"`
	// Final marks the terminal event a watch stream receives when its
	// zone is removed; no further estimates follow. Never set on
	// snapshot reads, so /v1 bodies are unchanged.
	Final bool `json:"final,omitempty"`
}

// ZoneStats snapshots one zone's counters.
type ZoneStats struct {
	// Received counts reports accepted into the queue.
	Received uint64 `json:"received"`
	// Dropped counts reports shed because the queue was full or the link
	// index was out of range.
	Dropped uint64 `json:"dropped"`
	// Batches counts processing rounds (batched match queries answered).
	Batches uint64 `json:"batches"`
	// Estimates counts published estimates.
	Estimates uint64 `json:"estimates"`
	// MatchErrors counts batches whose match query failed; a zone whose
	// MatchErrors advances while Estimates stalls is misconfigured, not
	// warming up.
	MatchErrors uint64 `json:"match_errors,omitempty"`
	// Starved counts fold rounds that produced no estimate because some
	// link had never reported: the distinction between "no estimate
	// because nothing is happening" and "no estimate because part of the
	// deployment is silent". It normally ticks a few times during
	// warm-up (per-link transports deliver the first full coverage over
	// several rounds) and then stops; a zone whose Starved KEEPS
	// advancing while Estimates stays zero has a dead or misaddressed
	// link, not an empty room.
	Starved uint64 `json:"starved,omitempty"`
	// QueueLen is the instantaneous number of pending batches.
	QueueLen int `json:"queue_len"`
	// Cold reports that the zone's Model is currently evicted to the
	// snapshot store (tiered storage); the zone still serves — its next
	// report batch, System call, snapshot export or forced rehydrate
	// restores it, while position, watch, track and history reads
	// never do. Hot zones omit the field, so services without a
	// hot-zone cap keep their exact pre-tiering stats bodies.
	Cold bool `json:"cold,omitempty"`
	// Evictions counts hot→cold transitions (Model dropped, after a
	// checkpoint to the store unless the store already held the zone's
	// current state).
	Evictions uint64 `json:"evictions,omitempty"`
	// Rehydrates counts cold→hot transitions (Model restored from the
	// store on demand).
	Rehydrates uint64 `json:"rehydrates,omitempty"`
	// RehydrateErrors counts failed rehydrate attempts: the store read
	// failed or the stored snapshot no longer validates. The zone stays
	// registered and retries on its next touch; a zone whose
	// RehydrateErrors keeps advancing has a broken or corrupted store
	// behind it.
	RehydrateErrors uint64 `json:"rehydrate_errors,omitempty"`
	// EvictErrors counts evictions aborted because the checkpoint write
	// failed; the zone stayed hot and kept serving (graceful
	// degradation costs memory headroom, never estimates).
	EvictErrors uint64 `json:"evict_errors,omitempty"`
}

// ReportRequest is the body of POST /v1/report and POST /v2/report.
type ReportRequest struct {
	Zone    string   `json:"zone"`
	Reports []Report `json:"reports"`
}

// ReportResponse is the success body of the report endpoints.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}

// ZoneList is the body of GET /v1/zones and GET /v2/zones.
type ZoneList struct {
	Zones []string `json:"zones"`
}

// ZoneSpec parameterizes server-side zone creation for POST
// /v2/zones/{id}. What a server does with it depends on its configured
// zone factory; cmd/tafloc-serve builds a simulated deployment of the
// requested geometry. Zero values select the factory's defaults.
type ZoneSpec struct {
	// Width and Height are the monitored area in metres.
	Width  float64 `json:"width,omitempty"`
	Height float64 `json:"height,omitempty"`
	// Links is the number of radio links to deploy.
	Links int `json:"links,omitempty"`
	// CellSize is the grid cell edge in metres.
	CellSize float64 `json:"cell_size,omitempty"`
	// Days is the simulated environment age at the day-0 survey.
	Days float64 `json:"days,omitempty"`
}

// ZoneInfo is the success body of POST/DELETE /v2/zones/{id}.
type ZoneInfo struct {
	Zone string `json:"zone"`
	// Links and Cells describe the created zone's deployment (creation
	// responses only).
	Links int `json:"links,omitempty"`
	Cells int `json:"cells,omitempty"`
	// Removed is true on deletion responses.
	Removed bool `json:"removed,omitempty"`
}

// Health is the body of GET /v2/healthz. (/v1/healthz keeps its frozen
// ad-hoc shape for compatibility.)
type Health struct {
	Status  string               `json:"status"`
	Zones   int                  `json:"zones"`
	UptimeS float64              `json:"uptime_s"`
	Stats   map[string]ZoneStats `json:"stats"`
	// Streams is the number of NDJSON report streams currently open
	// against the service.
	Streams int `json:"streams,omitempty"`
	// HotZones is the number of zones currently holding a resident
	// Model — equal to Zones on a service without a hot-zone cap,
	// smaller once the residency tier is evicting. Omitted when zero.
	HotZones int `json:"hot_zones,omitempty"`
}

// StreamAck is one response line of the NDJSON report stream
// (POST /v2/zones/{id}/reports:stream). Regular lines acknowledge one
// request line: Seq is the 1-based request line number, and either
// Accepted carries the number of reports taken into the zone's queue or
// Code/Error classify why the line's batch was not (queue_full for a
// shed batch, bad_link / bad_request for a rejected one — the stream
// itself continues either way). The final line of every stream carries
// Trailer instead: the summary the server writes before ending the
// response, whether the stream ended by client EOF, zone removal, or a
// malformed-beyond-recovery request.
type StreamAck struct {
	Seq      uint64         `json:"seq,omitempty"`
	Accepted int            `json:"accepted,omitempty"`
	Code     taflocerr.Code `json:"code,omitempty"`
	Error    string         `json:"error,omitempty"`
	Trailer  *StreamSummary `json:"trailer,omitempty"`
}

// StreamSummary is the trailer of an NDJSON report stream: cumulative
// accounting over the whole stream. Reports = Accepted + Shed +
// Rejected always holds (a line that fails to parse contributes to
// Lines only).
type StreamSummary struct {
	// Lines is the number of request lines read.
	Lines uint64 `json:"lines"`
	// Reports is the number of reports parsed from them.
	Reports uint64 `json:"reports"`
	// Accepted counts reports accepted into the zone's queue.
	Accepted uint64 `json:"accepted"`
	// Shed counts reports shed because the zone's bounded queue was full
	// (the stream's backpressure signal — slow down or retry later).
	Shed uint64 `json:"shed"`
	// Rejected counts reports in batches rejected by validation (an
	// out-of-range link index, or the zone disappearing mid-stream).
	Rejected uint64 `json:"rejected"`
}

// TrackPoint is one sample of a zone's smoothed trajectory: the raw
// published estimate plus the trajectory filter's state after folding
// it. Point/Velocity/PosStd come from the constant-velocity Kalman
// filter (internal/track); Accepted is false when the fix failed the
// innovation gate and the filter coasted on its motion model instead.
type TrackPoint struct {
	// Seq is the published estimate's sequence number, so track points
	// join against the raw history stream.
	Seq uint64 `json:"seq"`
	// Time is when the underlying estimate was published.
	Time time.Time `json:"time"`
	// Cell is the raw best-matching grid cell.
	Cell int `json:"cell"`
	// Raw is the unsmoothed position estimate in metres.
	Raw geom.Point `json:"raw"`
	// Point is the smoothed position in metres.
	Point geom.Point `json:"point"`
	// Velocity is the estimated velocity in metres per second.
	Velocity geom.Point `json:"velocity"`
	// PosStd is the 1-sigma position uncertainty in metres.
	PosStd float64 `json:"pos_std"`
	// Accepted reports whether the fix passed the innovation gate.
	Accepted bool `json:"accepted"`
}

// TrackResponse is the body of GET /v2/zones/{id}/track.
type TrackResponse struct {
	Zone string `json:"zone"`
	// Points is the smoothed trajectory, oldest first.
	Points []TrackPoint `json:"points"`
}

// HistoryResponse is the body of GET /v2/zones/{id}/history.
type HistoryResponse struct {
	Zone string `json:"zone"`
	// Estimates is the raw published-estimate history, oldest first.
	Estimates []Estimate `json:"estimates"`
}

// ErrorBody is the error response shape of the /v2 endpoints: the /v1
// {"error": msg} body plus the taxonomy code.
type ErrorBody struct {
	Error string         `json:"error"`
	Code  taflocerr.Code `json:"code,omitempty"`
}
