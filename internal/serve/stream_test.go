package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tafloc/internal/api"
	"tafloc/internal/geom"
	"tafloc/taflocerr"
)

// streamTestPoint is a position comfortably inside the test deployment.
var streamTestPoint = geom.Point{X: 1.5, Y: 1.2}

// streamAcks POSTs body to the NDJSON ingest route and returns the
// parsed ack lines (trailer last).
func streamAcks(t *testing.T, srv *httptest.Server, zone, body string) []api.StreamAck {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v2/zones/"+zone+"/reports:stream",
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var acks []api.StreamAck
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var a api.StreamAck
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Text(), err)
		}
		acks = append(acks, a)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return acks
}

// TestReportStreamProtocol pins the NDJSON contract: per-line acks in
// order, malformed and invalid lines cost exactly one line each, and
// the trailer's accounting adds up.
func TestReportStreamProtocol(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2, DetectThresholdDB: 0.25})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	good, _ := json.Marshal(targetBatch(dep, streamTestPoint))
	badLink := `[{"link":99,"rss":-40}]`
	body := string(good) + "\n" +
		"this is not json\n" +
		"\n" + // blank keepalive, not a line
		badLink + "\n" +
		string(good) + "\n"

	acks := streamAcks(t, srv, "z", body)
	if len(acks) != 5 {
		t.Fatalf("got %d response lines, want 4 acks + trailer: %+v", len(acks), acks)
	}
	batchLen := len(targetBatch(dep, streamTestPoint))
	for i, want := range []api.StreamAck{
		{Seq: 1, Accepted: batchLen},
		{Seq: 2, Code: taflocerr.CodeBadRequest},
		{Seq: 3, Code: taflocerr.CodeBadLink},
		{Seq: 4, Accepted: batchLen},
	} {
		got := acks[i]
		if got.Seq != want.Seq || got.Accepted != want.Accepted || got.Code != want.Code {
			t.Errorf("ack %d: got %+v, want seq=%d accepted=%d code=%q",
				i, got, want.Seq, want.Accepted, want.Code)
		}
	}
	tr := acks[4].Trailer
	if tr == nil {
		t.Fatalf("last line is not a trailer: %+v", acks[4])
	}
	want := api.StreamSummary{
		Lines:    4,
		Reports:  uint64(2*batchLen + 1), // the unparsable line contributes none; bad-link line has 1
		Accepted: uint64(2 * batchLen),
		Shed:     0,
		Rejected: 1,
	}
	if *tr != want {
		t.Errorf("trailer %+v, want %+v", *tr, want)
	}

	// The accepted reports reached the same counters HTTP ingest uses.
	if st := svc.Stats()["z"]; st.Received != uint64(2*batchLen) || st.Dropped != 1 {
		t.Errorf("zone stats after stream: %+v", st)
	}
}

// TestReportStreamBackpressure checks shed accounting: on an unstarted
// service whose one-batch queue is already full every batch sheds,
// acked queue_full, and the stream stays up.
func TestReportStreamBackpressure(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{QueueDepth: 1}) // no worker running
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest("z", targetBatch(dep, streamTestPoint)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	line, _ := json.Marshal(targetBatch(dep, streamTestPoint))
	body := string(line) + "\n" + string(line) + "\n"
	acks := streamAcks(t, srv, "z", body)
	if len(acks) != 3 {
		t.Fatalf("got %d response lines: %+v", len(acks), acks)
	}
	for i := 0; i < 2; i++ {
		if acks[i].Code != taflocerr.CodeQueueFull {
			t.Errorf("ack %d: %+v, want queue_full", i, acks[i])
		}
	}
	n := uint64(len(targetBatch(dep, streamTestPoint)))
	if tr := acks[2].Trailer; tr == nil || tr.Shed != 2*n || tr.Accepted != 0 {
		t.Errorf("trailer %+v, want shed=%d", acks[2].Trailer, 2*n)
	}
}

// TestReportStreamUnknownZone checks the stream is refused up front
// with the taxonomy error for a zone that does not exist.
func TestReportStreamUnknownZone(t *testing.T) {
	svc := newTestService(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v2/zones/nope/reports:stream",
		"application/x-ndjson", strings.NewReader("[]\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Code != taflocerr.CodeUnknownZone {
		t.Errorf("error body %+v, %v", eb, err)
	}
}

// TestReportStreamZoneRemovedMidStream: removing the zone ends the
// stream after an unknown_zone ack, with the trailer still delivered.
func TestReportStreamZoneRemovedMidStream(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{Window: 2})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	line, _ := json.Marshal(targetBatch(dep, streamTestPoint))
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v2/zones/z/reports:stream", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewScanner(resp.Body)

	// First line accepted while the zone is alive.
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if !br.Scan() {
		t.Fatal("no ack for first line")
	}
	var ack api.StreamAck
	if err := json.Unmarshal(br.Bytes(), &ack); err != nil || ack.Code != "" {
		t.Fatalf("first ack %s: %v", br.Text(), err)
	}

	if err := svc.RemoveZone("z"); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if !br.Scan() {
		t.Fatal("no ack after removal")
	}
	if err := json.Unmarshal(br.Bytes(), &ack); err != nil || ack.Code != taflocerr.CodeUnknownZone {
		t.Fatalf("post-removal ack %s: %v", br.Text(), err)
	}
	// The server ends the stream on its own: trailer, then EOF —
	// without the client closing its side first.
	if !br.Scan() {
		t.Fatal("no trailer after removal")
	}
	if err := json.Unmarshal(br.Bytes(), &ack); err != nil || ack.Trailer == nil {
		t.Fatalf("expected trailer, got %s (%v)", br.Text(), err)
	}
	if br.Scan() {
		t.Errorf("unexpected line after trailer: %s", br.Text())
	}
	pw.Close()
}
