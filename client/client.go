// Package client is the typed SDK for the TafLoc localization service's
// /v2 HTTP surface. It converses in the shared wire types of
// internal/api and translates error responses back into the taflocerr
// taxonomy, so a caller branches on errors.Is exactly as it would
// against an in-process serve.Service:
//
//	cli, err := client.Dial(ctx, "http://localhost:8750")
//	...
//	est, err := cli.Position(ctx, "lobby")
//	if errors.Is(err, taflocerr.ErrUnknownZone) { ... }
//
// Watch streams a zone's estimates over server-sent events:
//
//	ch, err := cli.Watch(ctx, "lobby")
//	for est := range ch { ... }
//
// The channel closes when ctx is cancelled, the connection drops, or the
// zone is removed server-side (the last event then has Final set).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tafloc/internal/api"
	"tafloc/taflocerr"
)

// Wire types, shared with the server so the two cannot drift.
type (
	// Estimate is one position estimate of a zone.
	Estimate = api.Estimate
	// Report is one RSS sample addressed to one link of a zone.
	Report = api.Report
	// ZoneSpec parameterizes server-side zone creation.
	ZoneSpec = api.ZoneSpec
	// ZoneInfo describes a created or removed zone.
	ZoneInfo = api.ZoneInfo
	// Health is the service health summary.
	Health = api.Health
	// TrackPoint is one sample of a zone's smoothed trajectory.
	TrackPoint = api.TrackPoint
)

// Client is a typed handle on one TafLoc service. It is safe for
// concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	watchRetry *WatchRetry
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, proxies, instrumentation). The default is
// http.DefaultClient. Note that http.Client.Timeout bounds the entire
// response body read, so a client with a Timeout silently ends Watch
// streams when it elapses — bound individual calls with request
// contexts instead and leave Timeout zero if you use Watch.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WatchRetry configures automatic reconnection of Watch streams.
type WatchRetry struct {
	// Initial is the first reconnect delay (default 100ms).
	Initial time.Duration
	// Max caps the exponential backoff (default 5s).
	Max time.Duration
	// MaxAttempts bounds consecutive failed reconnect attempts before
	// the stream is declared lost and its channel closed; 0 retries
	// forever (until ctx is cancelled).
	MaxAttempts int
	// OnRetry, when non-nil, observes every reconnect attempt: the error
	// that ended the previous connection (or failed the previous
	// attempt), the 1-based consecutive attempt number, and the delay
	// before the attempt. It runs on the watch goroutine — keep it fast.
	OnRetry func(err error, attempt int, delay time.Duration)
}

// WithWatchRetry makes Watch streams survive connection drops: when the
// SSE stream ends without a terminal event, the client reconnects with
// capped exponential backoff and resumes the channel, deduplicating by
// estimate sequence number. The two stream endings stay
// distinguishable: a zone removal still delivers a Final estimate
// before the channel closes (terminal), while a channel that closes
// without one means the stream was lost for good — retries exhausted or
// the context cancelled. Without this option a Watch channel simply
// closes on the first network blip.
func WithWatchRetry(r WatchRetry) Option {
	return func(c *Client) {
		if r.Initial <= 0 {
			r.Initial = defaultRetryInitial
		}
		if r.Max <= 0 {
			r.Max = defaultRetryMax
		}
		c.watchRetry = &r
	}
}

// New builds a client for the service at baseURL without touching the
// network. Prefer Dial, which also verifies the service is reachable.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, taflocerr.Errorf(taflocerr.CodeBadRequest, "client: invalid base URL %q", baseURL)
	}
	c := &Client{base: strings.TrimSuffix(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Dial builds a client and verifies the service responds on
// /v2/healthz.
func Dial(ctx context.Context, baseURL string, opts ...Option) (*Client, error) {
	c, err := New(baseURL, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := c.Health(ctx); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", baseURL, err)
	}
	return c, nil
}

// Health fetches the service health summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v2/healthz", nil, &h)
	return h, err
}

// Zones lists the registered zone IDs in sorted order.
func (c *Client) Zones(ctx context.Context) ([]string, error) {
	var zl api.ZoneList
	if err := c.do(ctx, http.MethodGet, "/v2/zones", nil, &zl); err != nil {
		return nil, err
	}
	return zl.Zones, nil
}

// Position fetches a zone's most recent estimate. A zone that exists
// but has not published yet fails with taflocerr.ErrNotReady.
func (c *Client) Position(ctx context.Context, zone string) (Estimate, error) {
	var e Estimate
	err := c.do(ctx, http.MethodGet, "/v2/zones/"+url.PathEscape(zone)+"/position", nil, &e)
	return e, err
}

// Track fetches up to n samples of a zone's smoothed trajectory,
// oldest first (n <= 0 for everything the server buffers). Each sample
// carries the Kalman-filtered position, velocity, and uncertainty next
// to the raw fix it was folded from. Zones with tracking disabled fail
// with taflocerr.ErrUnsupported.
func (c *Client) Track(ctx context.Context, zone string, n int) ([]TrackPoint, error) {
	var tr api.TrackResponse
	if err := c.do(ctx, http.MethodGet, trackPath(zone, "track", n), nil, &tr); err != nil {
		return nil, err
	}
	return tr.Points, nil
}

// History fetches up to n of a zone's most recently published
// estimates, oldest first (n <= 0 for everything the server buffers) —
// the raw stream the smoothed track is derived from, including absent
// samples. Zones with history disabled fail with
// taflocerr.ErrUnsupported.
func (c *Client) History(ctx context.Context, zone string, n int) ([]Estimate, error) {
	var hr api.HistoryResponse
	if err := c.do(ctx, http.MethodGet, trackPath(zone, "history", n), nil, &hr); err != nil {
		return nil, err
	}
	return hr.Estimates, nil
}

func trackPath(zone, sub string, n int) string {
	p := "/v2/zones/" + url.PathEscape(zone) + "/" + sub
	if n > 0 {
		p += "?n=" + strconv.Itoa(n)
	}
	return p
}

// Report ingests a batch of RSS reports for a zone and returns the
// accepted count. A report addressing an out-of-range link fails the
// whole batch with taflocerr.ErrBadLink; an overloaded zone sheds with
// taflocerr.ErrQueueFull (retry later — ingestion never queues
// unboundedly).
func (c *Client) Report(ctx context.Context, zone string, reports []Report) (int, error) {
	var resp api.ReportResponse
	err := c.do(ctx, http.MethodPost, "/v2/report",
		api.ReportRequest{Zone: zone, Reports: reports}, &resp)
	return resp.Accepted, err
}

// AddZone creates a zone server-side through the service's zone
// factory. Servers without a factory fail with
// taflocerr.ErrUnsupported; an existing id with taflocerr.ErrZoneExists.
func (c *Client) AddZone(ctx context.Context, zone string, spec ZoneSpec) (ZoneInfo, error) {
	var zi ZoneInfo
	err := c.do(ctx, http.MethodPost, "/v2/zones/"+url.PathEscape(zone), spec, &zi)
	return zi, err
}

// RemoveZone removes a zone at runtime. Watchers of the zone receive a
// terminal estimate and their streams end.
func (c *Client) RemoveZone(ctx context.Context, zone string) error {
	return c.do(ctx, http.MethodDelete, "/v2/zones/"+url.PathEscape(zone), nil, nil)
}

// Snapshot exports a zone's calibrated deployment as an opaque,
// CRC-checked binary snapshot (the internal/snap format). The bytes can
// be persisted and later fed to RestoreZone — on the same server or
// another one — to warm-start the zone without recalibration. Servers
// without a ZoneFactory have not opted into remote zone administration
// and fail with taflocerr.ErrUnsupported.
func (c *Client) Snapshot(ctx context.Context, zone string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v2/zones/"+url.PathEscape(zone)+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: snapshot %s: %w", zone, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RestoreZone warm-starts a zone server-side from a snapshot previously
// exported with Snapshot. The snapshot's zone ID must match zone.
// Corrupt or truncated snapshots fail with
// taflocerr.ErrSnapshotCorrupt (or ErrSnapshotVersion for a snapshot
// from an incompatible build); an existing id with
// taflocerr.ErrZoneExists.
func (c *Client) RestoreZone(ctx context.Context, zone string, snapshot []byte) (ZoneInfo, error) {
	var zi ZoneInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/v2/zones/"+url.PathEscape(zone)+"/snapshot", bytes.NewReader(snapshot))
	if err != nil {
		return zi, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return zi, fmt.Errorf("client: restore %s: %w", zone, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return zi, decodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&zi)
	return zi, err
}

// Watch subscribes to a zone's estimate stream over server-sent events.
// The returned channel yields every estimate the server publishes
// (starting with the current one, if any) until ctx is cancelled, the
// stream ends, or the zone is removed — in the removal case the last
// estimate received has Final set. The channel is always closed when
// the stream ends; cancelling ctx is the caller's way to unsubscribe.
//
// By default a dropped connection ends the stream. A client built with
// WithWatchRetry instead reconnects with capped exponential backoff and
// resumes the channel (the reconnected stream's replay of the last
// estimate delivered, with the same Seq and Time, is skipped; a lower
// Seq is delivered, as a restarted server counts from 1 again); if the
// zone turns out to have been removed while disconnected, a Final
// estimate is synthesized so the terminal contract holds across
// reconnects.
func (c *Client) Watch(ctx context.Context, zone string) (<-chan Estimate, error) {
	resp, err := c.watchConnect(ctx, zone)
	if err != nil {
		return nil, err
	}
	ch := make(chan Estimate, 16)
	go func() {
		defer close(ch)
		var last Estimate
		first := true
		for {
			sawFinal, delivered := c.pumpSSE(ctx, resp.Body, ch, &last, first)
			first = false
			if sawFinal || ctx.Err() != nil || c.watchRetry == nil {
				return
			}
			// The stream dropped mid-run; reconnect under the retry policy.
			resp = c.watchReconnect(ctx, zone, ch, delivered)
			if resp == nil {
				return
			}
		}
	}()
	return ch, nil
}

// watchConnect performs one watch connection attempt.
func (c *Client) watchConnect(ctx context.Context, zone string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v2/zones/"+url.PathEscape(zone)+"/watch", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: watch %s: %w", zone, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// watchReconnect runs the capped-backoff reconnect loop after a watch
// stream drops. It returns the next live response, or nil when the
// watch is over — retries exhausted, ctx cancelled, or the zone gone
// (in which case a synthetic Final estimate is delivered first, keeping
// the removal contract).
func (c *Client) watchReconnect(ctx context.Context, zone string, ch chan Estimate, everDelivered bool) *http.Response {
	r := c.watchRetry
	delay := r.Initial
	err := errors.New("client: watch stream ended")
	for attempt := 1; ; attempt++ {
		if r.MaxAttempts > 0 && attempt > r.MaxAttempts {
			return nil
		}
		if r.OnRetry != nil {
			r.OnRetry(err, attempt, delay)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
		delay *= 2
		if delay > r.Max {
			delay = r.Max
		}
		resp, cerr := c.watchConnect(ctx, zone)
		if cerr == nil {
			return resp
		}
		err = cerr
		if errors.Is(cerr, taflocerr.ErrUnknownZone) && everDelivered {
			// The zone was removed while we were away: end the stream the
			// way an uninterrupted watch would have, with a Final estimate.
			select {
			case ch <- Estimate{Zone: zone, Cell: -1, Final: true, Time: time.Now()}:
			case <-ctx.Done():
			}
			return nil
		}
	}
}

// pumpSSE consumes one SSE connection, delivering estimates to ch and
// recording the last one delivered in last. On a reconnect (initial
// false) it skips the stream's replay of last itself: the same Seq and
// the same Time. A lower Seq is delivered, since the server's counter
// starts again when its process restarts. On the first connection the
// snapshot estimate is part of the contract. It reports whether a Final
// estimate ended the stream, and whether any estimate has ever been
// delivered.
func (c *Client) pumpSSE(ctx context.Context, body io.ReadCloser, ch chan Estimate, last *Estimate, initial bool) (sawFinal, delivered bool) {
	defer body.Close()
	delivered = last.Seq > 0
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			// SSE comment — the server's idle heartbeat. Not an event;
			// never surfaces on the channel.
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var e Estimate
			if json.Unmarshal([]byte(data), &e) == nil {
				if !initial && !e.Final && e.Seq == last.Seq && e.Time.Equal(last.Time) {
					data = ""
					continue // replayed snapshot estimate after a reconnect
				}
				select {
				case ch <- e:
					*last = e
					delivered = true
				case <-ctx.Done():
					return false, delivered
				}
				if e.Final {
					return true, delivered
				}
			}
			data = ""
		}
	}
	// Scanner stops on EOF, connection error, or ctx cancellation (the
	// transport closes the body); the caller decides whether that ends
	// the watch or triggers a reconnect.
	return false, delivered
}

// do performs one JSON request/response round trip. A non-2xx response
// is decoded into the taxonomy: the returned error matches the
// taflocerr sentinel for the code the server sent.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns an error response into a typed taxonomy error that
// preserves the server's message.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var eb api.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Code != "" {
		// FromCode collapses codes this client build does not know about
		// onto ErrInternal, so errors.Is against the sentinels stays
		// exhaustive even against a newer server.
		return &taflocerr.Error{
			Code:    taflocerr.FromCode(eb.Code).Code,
			Message: fmt.Sprintf("client: %s (HTTP %d)", eb.Error, resp.StatusCode),
		}
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return taflocerr.Errorf(taflocerr.CodeInternal, "client: HTTP %d: %s", resp.StatusCode, msg)
}
