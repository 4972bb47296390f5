package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/snap"
	"tafloc/taflocerr"
)

// The /v2 surface: the /v1 routes plus runtime zone lifecycle, a
// streaming watch, and deployment snapshots, with every error carrying
// a taxonomy code.
//
//	POST   /v2/report             ingest a batch (422 + code bad_link on a bad link index)
//	POST   /v2/zones/{id}/reports:stream  persistent NDJSON ingest (per-line acks + trailer)
//	GET    /v2/zones              sorted zone IDs
//	POST   /v2/zones/{id}         create a zone via the configured ZoneFactory
//	DELETE /v2/zones/{id}         remove a zone at runtime
//	GET    /v2/zones/{id}/position latest estimate
//	GET    /v2/zones/{id}/track   smoothed trajectory + velocity (?n=K)
//	GET    /v2/zones/{id}/history raw published-estimate history (?n=K)
//	GET    /v2/zones/{id}/watch   SSE stream of estimates
//	GET    /v2/zones/{id}/snapshot export the zone's calibrated deployment (binary)
//	PUT    /v2/zones/{id}/snapshot warm-start a zone from an uploaded snapshot
//	GET    /v2/healthz            liveness and per-zone counters
//
// The snapshot routes are gated the same way as zone creation: a
// service without a configured ZoneFactory has not opted into remote
// zone administration and answers 501 + code unsupported.

// errorV2 writes the typed error body, deriving status and code from
// the taflocerr taxonomy.
func errorV2(w http.ResponseWriter, err error) {
	code := taflocerr.CodeOf(err)
	writeJSON(w, taflocerr.HTTPStatus(code), api.ErrorBody{Error: err.Error(), Code: code})
}

func methodNotAllowedV2(w http.ResponseWriter, want string) {
	errorV2(w, taflocerr.Errorf(taflocerr.CodeMethodNotAllowed, "serve: %s only", want))
}

func (s *Service) handleReportV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowedV2(w, http.MethodPost)
		return
	}
	var req api.ReportRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBody)).Decode(&req); err != nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: bad JSON: %v", err))
		return
	}
	if err := s.Ingest(req.Zone, req.Reports); err != nil {
		errorV2(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.ReportResponse{Accepted: len(req.Reports)})
}

func (s *Service) handleZoneListV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowedV2(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, api.ZoneList{Zones: s.Zones()})
}

func (s *Service) handleZoneV2(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v2/zones/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: want /v2/zones/{id}[/position|/track|/history|/watch|/snapshot|/reports:stream]"))
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodPost:
			s.handleZoneCreate(w, r, id)
		case http.MethodDelete:
			s.handleZoneDelete(w, id)
		default:
			methodNotAllowedV2(w, "POST or DELETE")
		}
	case "position":
		if r.Method != http.MethodGet {
			methodNotAllowedV2(w, http.MethodGet)
			return
		}
		if _, ok := s.lookup(id); !ok {
			errorV2(w, ErrUnknownZone)
			return
		}
		e, ok := s.Position(id)
		if !ok {
			errorV2(w, taflocerr.Errorf(taflocerr.CodeNotReady,
				"serve: zone %q has not published an estimate yet", id))
			return
		}
		writeJSON(w, http.StatusOK, e)
	case "watch":
		if r.Method != http.MethodGet {
			methodNotAllowedV2(w, http.MethodGet)
			return
		}
		s.handleWatch(w, r, id)
	case "reports:stream":
		s.handleReportStream(w, r, id)
	case "track":
		if r.Method != http.MethodGet {
			methodNotAllowedV2(w, http.MethodGet)
			return
		}
		points, err := s.Track(id, queryN(r))
		if err != nil {
			errorV2(w, err)
			return
		}
		writeJSON(w, http.StatusOK, api.TrackResponse{Zone: id, Points: points})
	case "history":
		if r.Method != http.MethodGet {
			methodNotAllowedV2(w, http.MethodGet)
			return
		}
		ests, err := s.History(id, queryN(r))
		if err != nil {
			errorV2(w, err)
			return
		}
		writeJSON(w, http.StatusOK, api.HistoryResponse{Zone: id, Estimates: ests})
	case "snapshot":
		switch r.Method {
		case http.MethodGet:
			s.handleSnapshotGet(w, id)
		case http.MethodPut:
			s.handleSnapshotPut(w, r, id)
		default:
			methodNotAllowedV2(w, "GET or PUT")
		}
	default:
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: unknown zone subresource %q", sub))
	}
}

// queryN parses the optional ?n=K sample bound of the track and
// history routes; 0 (all buffered samples) when absent or unparsable.
func queryN(r *http.Request) int {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil {
		return 0
	}
	return n
}

// maxSnapshotBody bounds PUT /v2/zones/{id}/snapshot uploads. Radio
// maps are dense float64 matrices, so snapshots are far bigger than
// report batches; 64 MiB covers thousands of cells.
const maxSnapshotBody = 64 << 20

func (s *Service) handleSnapshotGet(w http.ResponseWriter, id string) {
	if s.cfg.ZoneFactory == nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeUnsupported,
			"serve: snapshot transfer over HTTP requires a ZoneFactory"))
		return
	}
	data, err := s.SnapshotZone(id)
	if err != nil {
		errorV2(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Service) handleSnapshotPut(w http.ResponseWriter, r *http.Request, id string) {
	if s.cfg.ZoneFactory == nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeUnsupported,
			"serve: snapshot transfer over HTTP requires a ZoneFactory"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: read snapshot: %v", err))
		return
	}
	sn, err := snap.Decode(data)
	if err != nil {
		errorV2(w, err)
		return
	}
	if sn.Zone != id {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest,
			"serve: snapshot is for zone %q, not %q", sn.Zone, id))
		return
	}
	if _, err := s.restoreSnapshot(sn); err != nil {
		errorV2(w, err)
		return
	}
	// Dimensions come from the decoded snapshot, not a re-lookup — the
	// zone could already have been removed again by a concurrent DELETE.
	writeJSON(w, http.StatusCreated, api.ZoneInfo{
		Zone:  id,
		Links: len(sn.State.Links),
		Cells: sn.State.X.Cols(),
	})
}

func (s *Service) handleZoneCreate(w http.ResponseWriter, r *http.Request, id string) {
	factory := s.cfg.ZoneFactory
	if factory == nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeUnsupported,
			"serve: zone creation over HTTP requires a ZoneFactory"))
		return
	}
	var spec api.ZoneSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBody)).Decode(&spec); err != nil && !errors.Is(err, io.EOF) {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeBadRequest, "serve: bad JSON: %v", err))
		return
	}
	sys, err := factory(r.Context(), id, spec)
	if err != nil {
		errorV2(w, err)
		return
	}
	// A client that gave up while the factory ran gets no zone: its
	// retry must not find its own abandoned request's zone_exists.
	if err := r.Context().Err(); err != nil {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeCancelled,
			"serve: zone %q not created: request cancelled: %w", id, err))
		return
	}
	if err := s.AddZone(id, sys); err != nil {
		errorV2(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.ZoneInfo{
		Zone:  id,
		Links: sys.Layout().M(),
		Cells: sys.Layout().N(),
	})
}

func (s *Service) handleZoneDelete(w http.ResponseWriter, id string) {
	if err := s.RemoveZone(id); err != nil {
		errorV2(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ZoneInfo{Zone: id, Removed: true})
}

// handleWatch streams a zone's estimates as server-sent events:
//
//	event: estimate
//	data: {json Estimate}
//
// repeated per published estimate, and a final
//
//	event: gone
//	data: {json Estimate with final:true}
//
// when the zone is removed, after which the stream ends. The stream also
// ends when the client disconnects or its request context is cancelled.
//
// Between estimates the stream emits ": heartbeat" comment lines every
// Config.WatchHeartbeat (flushed immediately), so an idle stream — a
// vacant zone publishes nothing — is not killed by proxy or
// load-balancer idle timeouts. SSE clients ignore comment lines by
// protocol; package client does so explicitly.
func (s *Service) handleWatch(w http.ResponseWriter, r *http.Request, id string) {
	ch, stop, err := s.Watch(id)
	if err != nil {
		errorV2(w, err)
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeInternal, "serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	var heartbeat <-chan time.Time
	if s.cfg.WatchHeartbeat > 0 {
		ticker := time.NewTicker(s.cfg.WatchHeartbeat)
		defer ticker.Stop()
		heartbeat = ticker.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case e, open := <-ch:
			if !open {
				// Zone removed; the terminal estimate may have been shed if
				// this watcher was saturated, so synthesize one — the
				// client contract is that the last event is always "gone".
				writeSSE(w, "gone", Estimate{Zone: id, Cell: -1, Final: true})
				fl.Flush()
				return
			}
			event := "estimate"
			if e.Final {
				event = "gone"
			}
			writeSSE(w, event, e)
			fl.Flush()
			if e.Final {
				return
			}
		}
	}
}

func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func (s *Service) handleHealthzV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowedV2(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, api.Health{
		Status:   "ok",
		Zones:    len(s.Zones()),
		UptimeS:  s.Uptime().Seconds(),
		Stats:    s.Stats(),
		Streams:  int(s.streams.Load()),
		HotZones: s.HotZones(),
	})
}
