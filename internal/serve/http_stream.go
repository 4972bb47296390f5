package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"tafloc/internal/api"
	"tafloc/taflocerr"
)

// POST /v2/zones/{id}/reports:stream — persistent streaming ingest.
//
// The request body is NDJSON: one JSON array of reports per line,
//
//	[{"link":0,"rss":-41.5},{"link":1,"rss":-39.0}]
//
// held open for as long as the producer likes. The response (also
// NDJSON, written full-duplex while the request body is still being
// read) carries one ack line per request line and a final trailer:
//
//	{"seq":1,"accepted":2}
//	{"seq":2,"code":"queue_full","error":"serve: zone queue full"}
//	{"trailer":{"lines":2,"reports":4,"accepted":2,"shed":2,"rejected":0}}
//
// Each line's batch travels the same Ingest path as every other
// transport. Backpressure is end to end: a batch arriving on a full
// zone queue is shed and acked with queue_full (the producer's signal
// to slow down), and a producer outpacing the server's ack writes
// blocks on the connection itself. Malformed lines and validation
// failures cost exactly one line — the stream continues. The stream
// ends when the client closes its body (normal completion), the
// request context is cancelled, or the zone is removed mid-stream; the
// trailer is written in every case the connection still allows.
func (s *Service) handleReportStream(w http.ResponseWriter, r *http.Request, id string) {
	// Full duplex must be enabled before ANY write on this request —
	// including error responses. Without it the HTTP/1.x server drains
	// the entire request body before the first write, and this request's
	// body is an open-ended stream: an error write would block forever
	// against a producer that waits for the response. (HTTP/2 is duplex
	// natively and may not support the call; the flush test below
	// catches real failures.)
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor < 2 {
		errorV2(w, taflocerr.Errorf(taflocerr.CodeUnsupported,
			"serve: connection cannot stream acks: %v", err))
		return
	}
	// A stream owns its connection. Closing it afterwards (instead of
	// returning it to the keep-alive pool) matters for correctness, not
	// just hygiene: most exits leave the request body partially read —
	// an error response, the zone removed mid-stream, a malformed
	// producer — and a full-duplex handler that returns with an unread
	// body must not let the server read the connection for a next
	// request (net/http panics on the concurrent read).
	w.Header().Set("Connection", "close")
	if r.Method != http.MethodPost {
		methodNotAllowedV2(w, http.MethodPost)
		return
	}
	if _, ok := s.lookup(id); !ok {
		errorV2(w, ErrUnknownZone)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}
	s.streams.Add(1)
	defer s.streams.Add(-1)

	writeAck := func(a api.StreamAck) bool {
		data, err := json.Marshal(a)
		if err != nil {
			return false
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	var sum api.StreamSummary
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 4096), maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue // blank lines are producer keepalives, not batches
		}
		sum.Lines++
		ack := api.StreamAck{Seq: sum.Lines}
		var reports []Report
		if err := json.Unmarshal(line, &reports); err != nil {
			ack.Code = taflocerr.CodeBadRequest
			ack.Error = "serve: bad stream line: " + err.Error()
			if !writeAck(ack) {
				return
			}
			continue
		}
		sum.Reports += uint64(len(reports))
		err := s.Ingest(id, reports)
		switch {
		case err == nil:
			ack.Accepted = len(reports)
			sum.Accepted += uint64(len(reports))
		case errors.Is(err, ErrQueueFull):
			ack.Code = taflocerr.CodeQueueFull
			ack.Error = err.Error()
			sum.Shed += uint64(len(reports))
		default:
			ack.Code = taflocerr.CodeOf(err)
			ack.Error = err.Error()
			sum.Rejected += uint64(len(reports))
		}
		if !writeAck(ack) {
			return
		}
		if errors.Is(err, ErrUnknownZone) {
			// The zone was removed mid-stream; no later line can succeed.
			break
		}
	}
	writeAck(api.StreamAck{Trailer: &sum})
}

// maxStreamLine bounds one NDJSON request line (same budget as a whole
// /v2/report body — a line is a batch).
const maxStreamLine = maxReportBody
