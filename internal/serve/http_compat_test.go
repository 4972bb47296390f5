package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tafloc/internal/api"
	"tafloc/internal/core"
	"tafloc/internal/geom"
	"tafloc/taflocerr"
)

// doReq performs one request against the handler and returns status and
// exact body bytes.
func doReq(t *testing.T, h http.Handler, method, path, body string) (int, string, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header()
}

// TestV1ResponsesFrozen pins the /v1 surface to the pre-redesign bytes:
// every fixture below is the exact status and body the seed handler
// produced, captured before the v2 redesign. Any drift here is a
// compatibility break.
func TestV1ResponsesFrozen(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	fixtures := []struct {
		name, method, path, body string
		wantStatus               int
		wantBody                 string
	}{
		{"report wrong method", http.MethodGet, "/v1/report", "",
			405, `{"error":"POST only"}` + "\n"},
		{"report malformed json", http.MethodPost, "/v1/report", "{",
			400, `{"error":"bad JSON: unexpected EOF"}` + "\n"},
		{"report unknown zone", http.MethodPost, "/v1/report",
			`{"zone":"nope","reports":[{"link":0,"rss":-40}]}`,
			404, `{"error":"serve: unknown zone"}` + "\n"},
		{"report bad link", http.MethodPost, "/v1/report",
			`{"zone":"z","reports":[{"link":99,"rss":-40}]}`,
			400, `{"error":"serve: report link out of range: link 99 of 6 in zone \"z\""}` + "\n"},
		{"zones wrong method", http.MethodPost, "/v1/zones", "",
			405, `{"error":"GET only"}` + "\n"},
		{"zones list", http.MethodGet, "/v1/zones", "",
			200, `{"zones":["z"]}` + "\n"},
		{"position unknown zone", http.MethodGet, "/v1/zones/nope/position", "",
			404, `{"error":"serve: unknown zone"}` + "\n"},
		{"position not ready", http.MethodGet, "/v1/zones/z/position", "",
			404, `{"error":"no estimate published yet"}` + "\n"},
		{"bad subresource", http.MethodGet, "/v1/zones/z/wrong", "",
			404, `{"error":"want /v1/zones/{id}/position"}` + "\n"},
		{"healthz wrong method", http.MethodPost, "/v1/healthz", "",
			405, `{"error":"GET only"}` + "\n"},
	}
	for _, f := range fixtures {
		status, body, hdr := doReq(t, h, f.method, f.path, f.body)
		if status != f.wantStatus {
			t.Errorf("%s: status %d, want %d", f.name, status, f.wantStatus)
		}
		if body != f.wantBody {
			t.Errorf("%s: body %q, want %q (byte-compat break)", f.name, body, f.wantBody)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q", f.name, ct)
		}
	}
}

// TestV2ErrorPaths exercises the same error paths on /v2 and asserts
// every response carries the right status and taxonomy code.
func TestV2ErrorPaths(t *testing.T) {
	dep := testDeployment(t)
	svc := newTestService(t, Config{QueueDepth: 1})
	if err := svc.AddZone("z", testSystem(t, dep)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 taflocerr.Code
	}{
		{"report wrong method", http.MethodGet, "/v2/report", "",
			405, taflocerr.CodeMethodNotAllowed},
		{"report malformed json", http.MethodPost, "/v2/report", "{",
			400, taflocerr.CodeBadRequest},
		{"report unknown zone", http.MethodPost, "/v2/report",
			`{"zone":"nope","reports":[{"link":0,"rss":-40}]}`,
			404, taflocerr.CodeUnknownZone},
		{"report bad link is 422", http.MethodPost, "/v2/report",
			`{"zone":"z","reports":[{"link":99,"rss":-40}]}`,
			422, taflocerr.CodeBadLink},
		{"zones wrong method", http.MethodPut, "/v2/zones", "",
			405, taflocerr.CodeMethodNotAllowed},
		{"position unknown zone", http.MethodGet, "/v2/zones/nope/position", "",
			404, taflocerr.CodeUnknownZone},
		{"position not ready", http.MethodGet, "/v2/zones/z/position", "",
			404, taflocerr.CodeNotReady},
		{"create without factory", http.MethodPost, "/v2/zones/new", "",
			501, taflocerr.CodeUnsupported},
		{"delete unknown", http.MethodDelete, "/v2/zones/nope", "",
			404, taflocerr.CodeUnknownZone},
		{"watch unknown zone", http.MethodGet, "/v2/zones/nope/watch", "",
			404, taflocerr.CodeUnknownZone},
		{"bad subresource", http.MethodGet, "/v2/zones/z/wrong", "",
			400, taflocerr.CodeBadRequest},
	}
	for _, c := range cases {
		status, body, _ := doReq(t, h, c.method, c.path, c.body)
		if status != c.wantStatus {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, status, c.wantStatus, body)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil {
			t.Errorf("%s: undecodable error body %q: %v", c.name, body, err)
			continue
		}
		if eb.Code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, eb.Code, c.wantCode)
		}
		if eb.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}

	// Queue overflow on the v2 surface: depth-1 queue with no worker
	// running sheds the second batch with 429 + queue_full.
	ok := `{"zone":"z","reports":[{"link":0,"rss":-40}]}`
	if status, _, _ := doReq(t, h, http.MethodPost, "/v2/report", ok); status != 202 {
		t.Fatalf("first v2 report: %d", status)
	}
	status, body, _ := doReq(t, h, http.MethodPost, "/v2/report", ok)
	var eb api.ErrorBody
	_ = json.Unmarshal([]byte(body), &eb)
	if status != 429 || eb.Code != taflocerr.CodeQueueFull {
		t.Errorf("v2 overflow: status %d code %q, want 429 queue_full", status, eb.Code)
	}
}

// TestV2ZoneLifecycleOverHTTP drives create/list/delete through the v2
// surface with a zone factory, asserting codes on the conflict paths.
func TestV2ZoneLifecycleOverHTTP(t *testing.T) {
	dep := testDeployment(t)
	var factoryCalls int
	svc := newTestService(t, Config{
		Window:            2,
		DetectThresholdDB: 0.25,
		ZoneFactory: func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error) {
			factoryCalls++
			return testSystem(t, dep), nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := svc.Start(ctx); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	status, body, _ := doReq(t, h, http.MethodPost, "/v2/zones/room", "")
	if status != 201 {
		t.Fatalf("create: %d (%s)", status, body)
	}
	var zi api.ZoneInfo
	if err := json.Unmarshal([]byte(body), &zi); err != nil {
		t.Fatal(err)
	}
	if zi.Zone != "room" || zi.Links != 6 || zi.Cells == 0 {
		t.Errorf("create response: %+v", zi)
	}
	if factoryCalls != 1 {
		t.Errorf("factory called %d times", factoryCalls)
	}

	// Duplicate create: 409 + zone_exists.
	status, body, _ = doReq(t, h, http.MethodPost, "/v2/zones/room", "")
	var eb api.ErrorBody
	_ = json.Unmarshal([]byte(body), &eb)
	if status != 409 || eb.Code != taflocerr.CodeZoneExists {
		t.Errorf("duplicate create: %d %q", status, eb.Code)
	}

	// The created zone serves reports immediately (worker launched at
	// runtime).
	rb, _ := json.Marshal(api.ReportRequest{Zone: "room", Reports: targetBatch(dep, geom.Point{X: 1.5, Y: 1.2})})
	for i := 0; i < 10; i++ {
		if status, body, _ = doReq(t, h, http.MethodPost, "/v2/report", string(rb)); status != 202 {
			t.Fatalf("report to created zone: %d (%s)", status, body)
		}
	}
	waitForEstimate(t, svc, "room", func(e Estimate) bool { return e.Seq > 0 })
	if status, _, _ = doReq(t, h, http.MethodGet, "/v2/zones/room/position", ""); status != 200 {
		t.Errorf("position after create: %d", status)
	}

	// Delete, then the zone is gone from list and position.
	status, body, _ = doReq(t, h, http.MethodDelete, "/v2/zones/room", "")
	if status != 200 {
		t.Fatalf("delete: %d (%s)", status, body)
	}
	_ = json.Unmarshal([]byte(body), &zi)
	if !zi.Removed || zi.Zone != "room" {
		t.Errorf("delete response: %+v", zi)
	}
	status, _, _ = doReq(t, h, http.MethodGet, "/v2/zones/room/position", "")
	if status != 404 {
		t.Errorf("position after delete: %d", status)
	}
	var zl api.ZoneList
	_, body, _ = doReq(t, h, http.MethodGet, "/v2/zones", "")
	_ = json.Unmarshal([]byte(body), &zl)
	if len(zl.Zones) != 0 {
		t.Errorf("zones after delete: %v", zl.Zones)
	}
	cancel()
	svc.Wait()
}

// TestV2ZoneCreateCancelled: a zone-create request whose client gives
// up while the factory runs registers nothing and answers
// CodeCancelled, even though the factory goes on to return a valid
// System, so the client's retry does not meet zone_exists.
func TestV2ZoneCreateCancelled(t *testing.T) {
	sys := testSystem(t, testDeployment(t))
	entered := make(chan struct{})
	svc := newTestService(t, Config{
		ZoneFactory: func(ctx context.Context, id string, spec api.ZoneSpec) (*core.System, error) {
			close(entered)
			<-ctx.Done()
			return sys, nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v2/zones/room", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the factory")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler did not return after the request was cancelled")
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != taflocerr.CodeCancelled {
		t.Errorf("cancelled create: %d %s, want code %s", rec.Code, rec.Body, taflocerr.CodeCancelled)
	}
	if zones := svc.Zones(); len(zones) != 0 {
		t.Errorf("cancelled create registered %v", zones)
	}
}
