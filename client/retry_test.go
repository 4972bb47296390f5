package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tafloc/internal/api"
	"tafloc/taflocerr"
)

// TestDecodeErrorRoundTrip pins the full error taxonomy against drift:
// every code the server can emit must come back through the HTTP layer
// as an error matching its errors.Is sentinel — including codes this
// client build does not know, which collapse onto ErrInternal.
func TestDecodeErrorRoundTrip(t *testing.T) {
	cases := []struct {
		code taflocerr.Code
		want error
	}{
		{taflocerr.CodeUnknownZone, taflocerr.ErrUnknownZone},
		{taflocerr.CodeZoneExists, taflocerr.ErrZoneExists},
		{taflocerr.CodeQueueFull, taflocerr.ErrQueueFull},
		{taflocerr.CodeBadLink, taflocerr.ErrBadLink},
		{taflocerr.CodeBadRequest, taflocerr.ErrBadRequest},
		{taflocerr.CodeMethodNotAllowed, taflocerr.ErrMethodNotAllowed},
		{taflocerr.CodeNotReady, taflocerr.ErrNotReady},
		{taflocerr.CodeZoneRemoved, taflocerr.ErrZoneRemoved},
		{taflocerr.CodeStarted, taflocerr.ErrStarted},
		{taflocerr.CodeUnsupported, taflocerr.ErrUnsupported},
		{taflocerr.CodeCancelled, taflocerr.ErrCancelled},
		{taflocerr.CodeSnapshotVersion, taflocerr.ErrSnapshotVersion},
		{taflocerr.CodeSnapshotCorrupt, taflocerr.ErrSnapshotCorrupt},
		{taflocerr.CodeInternal, taflocerr.ErrInternal},
		// A future server speaking a newer taxonomy must still yield a
		// typed error, not a nil or a panic.
		{taflocerr.Code("from_the_future"), taflocerr.ErrInternal},
	}
	for _, tc := range cases {
		t.Run(string(tc.code), func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(taflocerr.HTTPStatus(tc.code))
				_ = json.NewEncoder(w).Encode(api.ErrorBody{
					Error: "server-side message for " + string(tc.code),
					Code:  tc.code,
				})
			}))
			defer srv.Close()
			cli, err := New(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			_, err = cli.Position(context.Background(), "z")
			if err == nil {
				t.Fatal("error response decoded as success")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("code %q decoded to %v, does not match sentinel %v", tc.code, err, tc.want)
			}
			// The server's message survives the trip for humans.
			if want := "server-side message"; !strings.Contains(err.Error(), want) {
				t.Errorf("decoded error %q lost the server message", err)
			}
		})
	}

	// A non-JSON error body (a proxy's HTML 502, say) still yields a
	// typed internal error.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
	}))
	defer srv.Close()
	cli, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Position(context.Background(), "z"); !errors.Is(err, taflocerr.ErrInternal) {
		t.Errorf("non-JSON error body: %v", err)
	}
}

// flappingWatchServer serves SSE watch streams that drop after each
// event: connection k delivers the single estimate seq=k then closes,
// until all events are spent, after which it serves a terminal Final
// event. It also replays the previous estimate at the start of each
// stream (like the real server's snapshot-first contract) so the
// client's dedup is exercised.
type flappingWatchServer struct {
	mu       sync.Mutex
	events   int
	served   int
	connects int
}

func (f *flappingWatchServer) handler(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.connects++
	seq := f.served
	done := f.served >= f.events
	if !done {
		f.served++
	}
	f.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	writeEvent := func(e api.Estimate) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", data)
		fl.Flush()
	}
	if seq > 0 {
		// Replay of the current snapshot estimate, as the real server does.
		writeEvent(api.Estimate{Zone: "z", Seq: uint64(seq), Cell: seq})
	}
	if done {
		e := api.Estimate{Zone: "z", Seq: uint64(seq + 1), Cell: -1, Final: true}
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: gone\ndata: %s\n\n", data)
		fl.Flush()
		return
	}
	writeEvent(api.Estimate{Zone: "z", Seq: uint64(seq + 1), Cell: seq + 1})
	// Drop the connection abruptly — the flap.
}

// TestWatchRetryAgainstFlappingServer is the reconnect acceptance test:
// with WithWatchRetry, a Watch stream over a server that drops the
// connection after every single event still delivers the whole ordered
// sequence exactly once, ends with the Final event, and reports each
// reconnect through OnRetry.
func TestWatchRetryAgainstFlappingServer(t *testing.T) {
	const events = 5
	fs := &flappingWatchServer{events: events}
	srv := httptest.NewServer(http.HandlerFunc(fs.handler))
	defer srv.Close()

	var retryMu sync.Mutex
	retries := 0
	cli, err := New(srv.URL, WithWatchRetry(WatchRetry{
		Initial: time.Millisecond,
		Max:     10 * time.Millisecond,
		OnRetry: func(err error, attempt int, delay time.Duration) {
			retryMu.Lock()
			retries++
			retryMu.Unlock()
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := cli.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}

	var got []Estimate
	for e := range ch {
		got = append(got, e)
	}
	if len(got) != events+1 {
		t.Fatalf("got %d events, want %d + Final: %+v", len(got), events, got)
	}
	for i := 0; i < events; i++ {
		if got[i].Seq != uint64(i+1) || got[i].Final {
			t.Errorf("event %d: %+v, want seq %d", i, got[i], i+1)
		}
	}
	if !got[events].Final {
		t.Errorf("last event not Final: %+v", got[events])
	}
	retryMu.Lock()
	defer retryMu.Unlock()
	if retries < events {
		t.Errorf("OnRetry saw %d reconnects, want >= %d (one per flap)", retries, events)
	}

	// Without the option, the first flap ends the stream — the legacy
	// contract is unchanged.
	fs2 := &flappingWatchServer{events: 3}
	srv2 := httptest.NewServer(http.HandlerFunc(fs2.handler))
	defer srv2.Close()
	plain, err := New(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := plain.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range ch2 {
		n++
	}
	if n != 1 {
		t.Errorf("plain watch over flapping server delivered %d events, want 1 then close", n)
	}
}

// TestWatchRetryAcrossServerRestart: a server's Seq counter starts
// again at 1 when its process restarts, so a resumed watch must deliver
// the new process's estimates although their Seqs are below the last
// one delivered before the drop.
func TestWatchRetryAcrossServerRestart(t *testing.T) {
	var mu sync.Mutex
	connects := 0
	t0 := time.Unix(1_700_000_000, 0).UTC()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		writeEvent := func(e api.Estimate) {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", data)
			w.(http.Flusher).Flush()
		}
		if n == 1 {
			for seq := 5; seq <= 7; seq++ {
				writeEvent(api.Estimate{Zone: "z", Seq: uint64(seq), Cell: seq, Time: t0.Add(time.Duration(seq) * time.Second)})
			}
			return // drop
		}
		// The restarted process counts from 1 again.
		for seq := 1; seq <= 3; seq++ {
			writeEvent(api.Estimate{Zone: "z", Seq: uint64(seq), Cell: seq, Time: t0.Add(time.Duration(10+seq) * time.Second)})
		}
		writeEvent(api.Estimate{Zone: "z", Seq: 4, Cell: -1, Final: true, Time: t0.Add(20 * time.Second)})
	}))
	defer srv.Close()

	cli, err := New(srv.URL, WithWatchRetry(WatchRetry{Initial: time.Millisecond, Max: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	ch, err := cli.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	var final bool
	for e := range ch {
		seqs = append(seqs, e.Seq)
		final = e.Final
	}
	if want := []uint64{5, 6, 7, 1, 2, 3, 4}; fmt.Sprint(seqs) != fmt.Sprint(want) || !final {
		t.Fatalf("delivered seqs %v (last Final %v), want %v ending in Final", seqs, final, want)
	}
}

// TestWatchRetryTerminalOnZoneGone: when the zone disappears while the
// watcher is disconnected, the resumed watch still honours the removal
// contract — a Final estimate, then close.
func TestWatchRetryTerminalOnZoneGone(t *testing.T) {
	var mu sync.Mutex
	connects := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			data, _ := json.Marshal(api.Estimate{Zone: "z", Seq: 1, Cell: 4})
			fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", data)
			w.(http.Flusher).Flush()
			return // drop
		}
		// Zone removed while the client was away.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(api.ErrorBody{Error: "gone", Code: taflocerr.CodeUnknownZone})
	}))
	defer srv.Close()

	cli, err := New(srv.URL, WithWatchRetry(WatchRetry{Initial: time.Millisecond, Max: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	ch, err := cli.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	var got []Estimate
	for e := range ch {
		got = append(got, e)
	}
	if len(got) != 2 || got[0].Seq != 1 || !got[1].Final {
		t.Fatalf("events %+v, want one estimate then a synthesized Final", got)
	}
}

// TestWatchRetryGivesUp: MaxAttempts bounds reconnection against a dead
// server; the channel closes without a Final event (the lost-stream
// signal, distinct from removal).
func TestWatchRetryGivesUp(t *testing.T) {
	var mu sync.Mutex
	connects := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		connects++
		n := connects
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			data, _ := json.Marshal(api.Estimate{Zone: "z", Seq: 1, Cell: 4})
			fmt.Fprintf(w, "event: estimate\ndata: %s\n\n", data)
			w.(http.Flusher).Flush()
			return
		}
		// Every reconnect fails hard.
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	cli, err := New(srv.URL, WithWatchRetry(WatchRetry{
		Initial: time.Millisecond, Max: 2 * time.Millisecond, MaxAttempts: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	ch, err := cli.Watch(ctx, "z")
	if err != nil {
		t.Fatal(err)
	}
	var got []Estimate
	for e := range ch {
		got = append(got, e)
	}
	if len(got) != 1 || got[0].Final {
		t.Fatalf("events %+v, want exactly the pre-drop estimate and no Final", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if connects != 4 { // initial + MaxAttempts
		t.Errorf("server saw %d connects, want 4", connects)
	}
}
