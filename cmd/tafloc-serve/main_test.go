package main

import (
	"context"
	"errors"
	"testing"

	"tafloc"
	"tafloc/taflocerr"
)

func parseForTest(t *testing.T, args ...string) *config {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	return cfg
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want taflocerr.Code
	}{
		{"no zones", []string{"-zones", "0"}, taflocerr.CodeBadRequest},
		{"bad window", []string{"-window", "0"}, taflocerr.CodeBadRequest},
		{"bad interval", []string{"-interval", "-1s"}, taflocerr.CodeBadRequest},
		{"unknown matcher", []string{"-matcher", "nope"}, taflocerr.CodeUnsupported},
		{"unknown detector", []string{"-detector", "nope"}, taflocerr.CodeUnsupported},
		{"negative hot cap", []string{"-max-hot-zones", "-1"}, taflocerr.CodeBadRequest},
		{"hot cap without state dir", []string{"-max-hot-zones", "2"}, taflocerr.CodeBadRequest},
		{"bad checkpoint", []string{"-state-dir", "x", "-checkpoint", "0s"}, taflocerr.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parseForTest(t, tc.args...).validate()
			if err == nil {
				t.Fatalf("validate(%v): want error, got nil", tc.args)
			}
			if got := taflocerr.CodeOf(err); got != tc.want {
				t.Fatalf("validate(%v): code %s, want %s (err: %v)", tc.args, got, tc.want, err)
			}
			if !errors.Is(err, taflocerr.FromCode(tc.want)) {
				t.Fatalf("validate(%v): error %v does not match sentinel for %s", tc.args, err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsWarnOnlyCombos(t *testing.T) {
	// Surprising-but-legal combinations must stay usable: they warn,
	// they do not fail startup.
	for _, args := range [][]string{
		{},
		{"-checkpoint", "5s"}, // ignored without -state-dir: warn only
		{"-sim=false", "-interval", "5ms"},
		{"-state-dir", "x", "-checkpoint", "5s", "-max-hot-zones", "2"},
	} {
		if err := parseForTest(t, args...).validate(); err != nil {
			t.Errorf("validate(%v): unexpected error %v", args, err)
		}
	}
}

// TestZoneFactoryRejectsOversizedSpec: POST /v2/zones/{id} hands its
// ZoneSpec to the factory, which sizes the room, the cells and the link
// count from it. A spec one cell or one link over the caps is rejected
// with CodeBadRequest before any deployment is built.
func TestZoneFactoryRejectsOversizedSpec(t *testing.T) {
	f := &zoneFactory{matcher: "wknn", deps: make(map[string]*tafloc.Deployment)}
	for _, tc := range []struct {
		name string
		spec tafloc.ZoneSpec
	}{
		{"cells", tafloc.ZoneSpec{Width: 277, Height: 13, CellSize: 1}}, // 3601 cells
		{"links", tafloc.ZoneSpec{Links: maxZoneLinks + 1}},
	} {
		if _, err := f.build(context.Background(), tc.name, tc.spec); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
			t.Errorf("%s: spec %+v: err %v, want %s", tc.name, tc.spec, err, taflocerr.CodeBadRequest)
		}
	}
	if len(f.deps) != 0 {
		t.Errorf("rejected specs built deployments: %d", len(f.deps))
	}
	// A cell size that makes the grid's cell count overflow an int is
	// over the cap too.
	cfg := tafloc.PaperConfig()
	cfg.CellSize = 1e-300
	if err := checkZoneSize(cfg); taflocerr.CodeOf(err) != taflocerr.CodeBadRequest {
		t.Errorf("cell size 1e-300: err %v, want %s", err, taflocerr.CodeBadRequest)
	}
	if err := checkZoneSize(tafloc.SquareConfig(36)); err != nil {
		t.Errorf("the paper's largest area: %v", err)
	}
}

// TestZoneFactoryStopsWhenCancelled: a build whose request context is
// done fails with CodeCancelled and records no deployment, so the
// client's retry builds the zone afresh.
func TestZoneFactoryStopsWhenCancelled(t *testing.T) {
	f := &zoneFactory{matcher: "wknn", deps: make(map[string]*tafloc.Deployment)}
	spec := tafloc.ZoneSpec{Width: 2.4, Height: 1.8, Links: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.build(ctx, "small", spec); taflocerr.CodeOf(err) != taflocerr.CodeCancelled || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled build: err %v, want %s wrapping context.Canceled", err, taflocerr.CodeCancelled)
	}
	if _, ok := f.deployment("small"); ok {
		t.Error("a cancelled build recorded its deployment")
	}
	if _, err := f.build(context.Background(), "small", spec); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if _, ok := f.deployment("small"); !ok {
		t.Error("the retried build recorded no deployment")
	}
}
