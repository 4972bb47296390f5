package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
	"tafloc/taflocerr"
)

// stateTestSystem builds a small calibrated system directly from
// synthetic data (no testbed dependency — core cannot import it).
func stateTestSystem(t *testing.T, opts SystemOptions) (*System, *Layout) {
	t.Helper()
	grid, err := geom.NewGrid(3.0, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	links := geom.CrossedDeployment(3.0, 2.0, 5)
	layout, err := NewLayout(links, grid, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	m, n := layout.M(), layout.N()
	survey := mat.New(m, n)
	vacant := make([]float64, m)
	for i := 0; i < m; i++ {
		vacant[i] = -40 - float64(i)
		for j := 0; j < n; j++ {
			// Deterministic, link- and cell-dependent structure so matching
			// is non-trivial and reference selection has rank to find.
			survey.Set(i, j, -40-float64(i)-0.8*float64(j%7)-0.3*float64((i*j)%5))
		}
	}
	sys, err := NewSystem(layout, survey, vacant, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, layout
}

// TestExportRestoreRoundTrip pins warm-start fidelity at the core layer:
// a restored system must run the same matcher and locate identically to
// the original on the same inputs — bit for bit, not approximately. The
// list includes a registered custom name, which a snapshot carries the
// same way as a built-in one.
func TestExportRestoreRoundTrip(t *testing.T) {
	const custom = "state-test-knn5"
	if err := RegisterMatcher(custom, func() Matcher { return KNNMatcher{K: 5} }); err != nil {
		t.Fatal(err)
	}
	for _, matcher := range []string{"", MatcherWKNN, MatcherNN, MatcherBayes, custom} {
		opts := DefaultSystemOptions()
		opts.MatcherName = matcher
		sys, layout := stateTestSystem(t, opts)

		st := sys.ExportState()
		restored, err := RestoreSystem(st)
		if err != nil {
			t.Fatalf("matcher %q: restore: %v", matcher, err)
		}

		if got, want := restored.References(), sys.References(); len(got) != len(want) {
			t.Fatalf("matcher %q: references %v != %v", matcher, got, want)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("matcher %q: references %v != %v", matcher, got, want)
				}
			}
		}
		if !restored.Fingerprints().Equal(sys.Fingerprints(), 0) {
			t.Fatalf("matcher %q: fingerprint database differs after restore", matcher)
		}
		if !restored.Mask().Equal(sys.Mask(), 0) {
			t.Fatalf("matcher %q: mask differs after restore", matcher)
		}
		if got, want := restored.Model().Matcher(), sys.Model().Matcher(); got != want {
			t.Fatalf("matcher %q: restored matcher %#v, want %#v", matcher, got, want)
		}

		m := layout.M()
		for trial := 0; trial < 8; trial++ {
			y := make([]float64, m)
			for i := range y {
				y[i] = -41 - float64(i) - 0.5*float64((trial*i)%3)
			}
			a, err1 := sys.Locate(y)
			b, err2 := restored.Locate(y)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("matcher %q: locate errors diverge: %v vs %v", matcher, err1, err2)
			}
			if a != b {
				t.Fatalf("matcher %q: locate diverges after restore: %+v vs %+v", matcher, a, b)
			}
		}
	}
}

// TestRestoreAfterUpdateKeepsObservedMask checks the restored system
// carries the observed-entry matrix an update installs (it weights the
// default matcher), again to bit-identical locate results.
func TestRestoreAfterUpdateKeepsObservedMask(t *testing.T) {
	sys, layout := stateTestSystem(t, DefaultSystemOptions())
	m := layout.M()
	refs := sys.References()
	refCols := mat.New(m, len(refs))
	vac := make([]float64, m)
	for i := 0; i < m; i++ {
		vac[i] = -40.5 - float64(i)
		for k := range refs {
			refCols.Set(i, k, -41-float64(i)-0.7*float64(refs[k]%7))
		}
	}
	if _, err := sys.UpdateContext(context.Background(), refCols, vac); err != nil {
		t.Fatal(err)
	}

	st := sys.ExportState()
	if st.Observed == nil {
		t.Fatal("exported state after an update should carry the observed-entry matrix")
	}
	restored, err := RestoreSystem(st)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, m)
	for i := range y {
		y[i] = -42 - 0.9*float64(i)
	}
	a, err1 := sys.Locate(y)
	b, err2 := restored.Locate(y)
	if err1 != nil || err2 != nil {
		t.Fatalf("locate: %v / %v", err1, err2)
	}
	if a != b {
		t.Fatalf("locate diverges after post-update restore: %+v vs %+v", a, b)
	}
}

// TestUpdateAfterRestoreMatchesOriginal pins that restoring a System
// moves nothing an Update depends on, although a restored System builds
// its LoLi-IR reconstructor only on its first Update: the same update on
// a System restored from the original's ExportState and on the original
// publishes the same database, observed mask and references bit for
// bit, and the same estimates. Stage 1 restores a System that was never
// updated; stage 2 one that was.
func TestUpdateAfterRestoreMatchesOriginal(t *testing.T) {
	sys, layout := stateTestSystem(t, DefaultSystemOptions())
	m := layout.M()
	update := func(s *System, stage int) {
		t.Helper()
		refs := s.References()
		refCols := mat.New(m, len(refs))
		vac := make([]float64, m)
		for i := 0; i < m; i++ {
			vac[i] = -40.5 - float64(i) - 0.1*float64(stage)
			for k := range refs {
				refCols.Set(i, k, -41-float64(i)-0.7*float64(refs[k]%7)-0.3*float64(stage))
			}
		}
		if _, err := s.UpdateContext(context.Background(), refCols, vac); err != nil {
			t.Fatal(err)
		}
	}
	for stage := 1; stage <= 2; stage++ {
		restored, err := RestoreSystem(sys.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		update(sys, stage)
		update(restored, stage)
		a, b := sys.Model(), restored.Model()
		if !b.Fingerprints().Equal(a.Fingerprints(), 0) {
			t.Fatalf("stage %d: updated databases differ", stage)
		}
		if !b.Observed().Equal(a.Observed(), 0) {
			t.Fatalf("stage %d: updated observed masks differ", stage)
		}
		if got, want := b.References(), a.References(); !slices.Equal(got, want) {
			t.Fatalf("stage %d: references %v != %v", stage, got, want)
		}
		for trial := 0; trial < 8; trial++ {
			y := make([]float64, m)
			for i := range y {
				y[i] = -41 - float64(i) - 0.5*float64((trial*i)%3)
			}
			la, err1 := a.Locate(y, nil)
			lb, err2 := b.Locate(y, nil)
			if err1 != nil || err2 != nil || la != lb {
				t.Fatalf("stage %d: locate diverges: %+v (%v) vs %+v (%v)", stage, la, err1, lb, err2)
			}
		}
	}
}

// TestRestoreSystemFailsClosed: structurally inconsistent states must
// yield taflocerr.ErrSnapshotCorrupt, not a panic or a broken system.
func TestRestoreSystemFailsClosed(t *testing.T) {
	sys, _ := stateTestSystem(t, DefaultSystemOptions())
	base := sys.ExportState()

	cases := map[string]func(*SystemState){
		"nil X":           func(st *SystemState) { st.X = nil },
		"wrong X dims":    func(st *SystemState) { st.X = mat.New(2, 2) },
		"wrong mask dims": func(st *SystemState) { st.Mask = mat.New(1, 1) },
		"short vacant":    func(st *SystemState) { st.Vacant = st.Vacant[:1] },
		"no refs":         func(st *SystemState) { st.RefCells = nil },
		"ref out of range": func(st *SystemState) {
			st.RefCells = append(append([]int(nil), st.RefCells...), 10_000)
		},
		"bad grid":       func(st *SystemState) { st.GridCellSize = -1 },
		"no links":       func(st *SystemState) { st.Links = nil },
		"wrong observed": func(st *SystemState) { st.Observed = mat.New(1, 3) },
		"unknown matcher": func(st *SystemState) {
			st.MatcherName = "no-such-matcher"
		},
		"non-finite X": func(st *SystemState) {
			st.X = st.X.Clone()
			st.X.Set(0, 0, math.NaN())
		},
		"X of 1e200": func(st *SystemState) {
			st.MatcherName = MatcherNN
			st.X = st.X.Clone()
			st.X.Fill(1e200)
		},
		"X below RSS range": func(st *SystemState) {
			st.X = st.X.Clone()
			st.X.Set(0, 0, MinRSS-1)
		},
		"NaN vacant": func(st *SystemState) {
			st.Vacant = append([]float64(nil), st.Vacant...)
			st.Vacant[0] = math.NaN()
		},
		"infinite vacant": func(st *SystemState) {
			st.Vacant = append([]float64(nil), st.Vacant...)
			st.Vacant[0] = math.Inf(1)
		},
		"vacant above RSS range": func(st *SystemState) {
			st.Vacant = append([]float64(nil), st.Vacant...)
			st.Vacant[0] = 1e200
		},
		"nil mask": func(st *SystemState) {
			st.Mask = nil
		},
		"invalid LoLi options": func(st *SystemState) {
			st.LoLi.Lambda = -1
		},
		"infinite LoLi Mu": func(st *SystemState) {
			st.LoLi.Mu = math.Inf(1)
		},
		"NaN LoLi Lambda": func(st *SystemState) {
			st.LoLi.Lambda = math.NaN()
		},
		"NaN RecSigmaDB": func(st *SystemState) {
			st.RecSigmaDB = math.NaN()
		},
		"infinite RecSigmaDB": func(st *SystemState) {
			st.RecSigmaDB = math.Inf(1)
		},
	}
	for name, corrupt := range cases {
		st := *base // shallow copy; corruptors replace fields rather than mutate shared ones
		corrupt(&st)
		if _, err := RestoreSystem(&st); err == nil {
			t.Errorf("%s: restore accepted a corrupt state", name)
		} else if !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
			t.Errorf("%s: error %v does not match ErrSnapshotCorrupt", name, err)
		}
	}
	if _, err := RestoreSystem(nil); !errors.Is(err, taflocerr.ErrSnapshotCorrupt) {
		t.Errorf("nil state: %v", err)
	}
}
