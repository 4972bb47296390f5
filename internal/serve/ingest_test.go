package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/collector"
	"tafloc/internal/core"
	"tafloc/internal/wire"
	"tafloc/taflocerr"
)

// wireBatch shapes n frames as a UDP batch datagram payload.
func wireBatch(n int, rssBase float64) []wire.RSSReport {
	reports := make([]wire.RSSReport, n)
	for i := range reports {
		reports[i] = wire.RSSReport{LinkID: uint16(i), Seq: uint32(i + 1), Time: time.Now()}
		reports[i].SetRSS(rssBase - float64(i))
	}
	return reports
}

// TestCollectorIngestSharedPath is the collector→Ingestor integration
// test: UDP batch datagrams forwarded through SetBatchSink +
// IngestSink must hit the same validation/shedding/counters as direct
// Ingest calls. The service is deliberately not started and given an
// exactly-known queue depth, so the shed point is deterministic: the
// same sequence of batches produces identical Received/Dropped whether
// it arrives over UDP or in-process.
func TestCollectorIngestSharedPath(t *testing.T) {
	const links = 3
	const depth = 2
	dep := testDeployment(t)

	// Two identical zones on one unstarted service: "udp" is fed through
	// the collector, "direct" through Service.Ingest. Queue depth 2 means
	// batches 3+ shed.
	svc := newTestService(t, Config{QueueDepth: depth})
	sysA, sysB := testSystem(t, dep), testSystem(t, dep)
	if err := svc.AddZone("udp", sysA); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddZone("direct", sysB); err != nil {
		t.Fatal(err)
	}

	// The collector is wider than the zone, so a frame it keeps can
	// still name a link the zone does not have (see the end of the test).
	col, err := collector.New(100, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	col.SetBatchSink(IngestSink(svc, "udp"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataAddr, _, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		col.Wait()
	})

	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const batches = 5
	for k := 0; k < batches; k++ {
		frames := wireBatch(links, -40)
		if _, err := conn.Write(wire.EncodeBatch(frames)); err != nil {
			t.Fatal(err)
		}
		// The same batch in-process, converted exactly as the sink does.
		direct := make([]Report, len(frames))
		for i := range frames {
			direct[i] = FromWire(&frames[i])
		}
		err := svc.Ingest("direct", direct)
		if k < depth && err != nil {
			t.Fatalf("direct batch %d unexpectedly failed: %v", k, err)
		}
		if k >= depth && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("direct batch %d: err = %v, want ErrQueueFull", k, err)
		}
	}

	// Wait until the collector has seen all frames.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := col.Store.Stats(); st.FramesReceived == uint64(batches*links) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	stats := svc.Stats()
	udp, direct := stats["udp"], stats["direct"]
	if udp.Received != direct.Received || udp.Dropped != direct.Dropped {
		t.Errorf("UDP path counted differently from direct ingest:\n udp    %+v\n direct %+v", udp, direct)
	}
	wantReceived := uint64(depth * links)
	wantDropped := uint64((batches - depth) * links)
	if direct.Received != wantReceived || direct.Dropped != wantDropped {
		t.Errorf("direct stats %+v, want received=%d dropped=%d", direct, wantReceived, wantDropped)
	}

	// Link validation is shared too: a frame the collector keeps but
	// that is out of range for the zone is counted dropped on the zone.
	droppedBefore := svc.Stats()["udp"].Dropped
	bad := wire.RSSReport{LinkID: 99, Seq: 1, Time: time.Now()}
	bad.SetRSS(-40)
	if _, err := conn.Write(wire.EncodeBatch([]wire.RSSReport{bad})); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats()["udp"].Dropped == droppedBefore+1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("bad-link frame not counted: dropped=%d, want %d", svc.Stats()["udp"].Dropped, droppedBefore+1)
}

// TestCollectorForwardsOnlyKeptFrames: a frame the collector drops (an
// unknown link) is not forwarded, so it costs exactly one frame end to
// end instead of getting the whole datagram rejected by Ingest.
func TestCollectorForwardsOnlyKeptFrames(t *testing.T) {
	dep := testDeployment(t)
	links := dep.Channel.M()
	svc := newTestService(t, Config{}) // unstarted: accepted batches stay queued
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(links, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingest := IngestSink(svc, "z")
	var sunk atomic.Uint64
	col.SetBatchSink(func(frames []wire.RSSReport) {
		sunk.Add(uint64(len(frames)))
		ingest(frames)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dataAddr, _, err := col.Start(ctx, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		col.Wait()
	})
	conn, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bad := wire.RSSReport{LinkID: uint16(links), Seq: 1, Time: time.Now()}
	bad.SetRSS(-40)
	frames := append([]wire.RSSReport{bad}, wireBatch(links, -40)...)
	if _, err := conn.Write(wire.EncodeBatch(frames)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := svc.Stats()["z"]; st.Received+st.Dropped > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cs, zs := col.Store.Stats(), svc.Stats()["z"]
	if cs.FramesReceived != uint64(links+1) || cs.FramesDropped != 1 {
		t.Errorf("collector stats %+v, want received=%d dropped=1", cs, links+1)
	}
	if got, want := sunk.Load(), cs.FramesReceived-cs.FramesDropped; got != want {
		t.Errorf("sink got %d frames, want received-dropped = %d", got, want)
	}
	if zs.Received != uint64(links) || zs.Dropped != 0 {
		t.Errorf("zone stats %+v, want received=%d dropped=0", zs, links)
	}
}

// TestOutOfRangeRSSRejected pins the RSS value check on the shared
// ingest path. Without it, one POST carrying "rss":1e308 on one link
// was accepted: the zone's live window then published a NaN point at
// +Inf distance, and the position and track endpoints answered 200
// with an empty body (the JSON encoder fails on NaN after the header
// is out) until the sample left the window. Every transport must
// reject such a batch as bad_request, count it as dropped, and leave
// the zone serving decodable positions.
func TestOutOfRangeRSSRejected(t *testing.T) {
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
	h := svc.Handler()

	poisoned := targetBatch(dep, streamTestPoint)
	poisoned[0].RSS = 1e308
	batchLen := len(poisoned)
	body, err := json.Marshal(api.ReportRequest{Zone: "z", Reports: poisoned})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v2/report", "/v1/report"} {
		status, resp, _ := doReq(t, h, http.MethodPost, path, string(body))
		if status != http.StatusBadRequest {
			t.Errorf("POST %s with rss 1e308: status %d (%s), want 400", path, status, resp)
		}
		if path == "/v2/report" {
			var eb api.ErrorBody
			if err := json.Unmarshal([]byte(resp), &eb); err != nil || eb.Code != taflocerr.CodeBadRequest {
				t.Errorf("POST %s: body %q, want code %q", path, resp, taflocerr.CodeBadRequest)
			}
		}
	}
	line, _ := json.Marshal(poisoned)
	acks := streamAcks(t, srv, "z", string(line)+"\n")
	if len(acks) != 2 || acks[0].Code != taflocerr.CodeBadRequest || acks[1].Trailer == nil || acks[1].Trailer.Rejected != uint64(batchLen) {
		t.Errorf("stream acks %+v, want one bad_request line and a trailer rejecting %d reports", acks, batchLen)
	}
	// Values JSON cannot carry reach Ingest in-process.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), core.MinRSS - 1, core.MaxRSS + 1} {
		batch := targetBatch(dep, streamTestPoint)
		batch[len(batch)-1].RSS = v
		if err := svc.Ingest("z", batch); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
			t.Errorf("Ingest with rss %v: %v, want a bad_request error", v, err)
		}
	}
	const rejectedBatches = 3 + 5 // two POSTs and a stream line, then five in-process batches
	if st := svc.Stats()["z"]; st.Received != 0 || st.Dropped != uint64(rejectedBatches*batchLen) {
		t.Errorf("stats after rejected batches: %+v, want received 0, dropped %d", st, rejectedBatches*batchLen)
	}

	if err := svc.Ingest("z", targetBatch(dep, streamTestPoint)); err != nil {
		t.Fatal(err)
	}
	waitForEstimate(t, svc, "z", func(Estimate) bool { return true })
	for _, path := range []string{"/v2/zones/z/position", "/v2/zones/z/track", "/v1/zones/z/position"} {
		status, resp, _ := doReq(t, h, http.MethodGet, path, "")
		var v map[string]any
		if status != http.StatusOK || json.Unmarshal([]byte(resp), &v) != nil || len(v) == 0 {
			t.Errorf("GET %s: status %d, body %q, want 200 with a JSON object", path, status, resp)
		}
	}

	// Both ends of the range a UDP frame saturates to still pass.
	frames := wireBatch(2, -40)
	frames[0].SetRSS(1e12)
	frames[1].SetRSS(-1e12)
	edge := []Report{FromWire(&frames[0]), FromWire(&frames[1])}
	if err := svc.Ingest("z", edge); err != nil {
		t.Errorf("Ingest of saturated wire frames (rss %v, %v): %v", edge[0].RSS, edge[1].RSS, err)
	}
}
