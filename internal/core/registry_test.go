package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tafloc/taflocerr"
)

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{MatcherNN, MatcherKNN, MatcherBayes, MatcherWKNN} {
		m, err := NewMatcherByName(name)
		if err != nil {
			t.Fatalf("builtin matcher %q: %v", name, err)
		}
		if m == nil {
			t.Fatalf("builtin matcher %q: nil", name)
		}
	}
	vac := []float64{-40, -41, -42}
	for _, name := range []string{DetectorMAD, DetectorRMS, DetectorMaxLink} {
		f, err := NewDetectorByName(name)
		if err != nil {
			t.Fatalf("builtin detector %q: %v", name, err)
		}
		d := f(vac, 1)
		if present, _ := d.Present(vac); present {
			t.Errorf("detector %q: vacant baseline read as present", name)
		}
		disturbed := []float64{-40, -41, -50}
		if present, _ := d.Present(disturbed); !present {
			t.Errorf("detector %q: 8 dB single-link disturbance read as absent", name)
		}
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	if _, err := NewMatcherByName("nope"); !errors.Is(err, taflocerr.ErrBadRequest) {
		t.Errorf("unknown matcher: %v, want CodeBadRequest", err)
	}
	if _, err := NewDetectorByName("nope"); !errors.Is(err, taflocerr.ErrBadRequest) {
		t.Errorf("unknown detector: %v, want CodeBadRequest", err)
	}
	if err := RegisterMatcher("", nil); err == nil {
		t.Error("empty registration accepted")
	}
}

func TestRegisterCustomMatcher(t *testing.T) {
	if err := RegisterMatcher("custom-nn", func() Matcher { return NNMatcher{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatcherByName("custom-nn"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range MatcherNames() {
		if n == "custom-nn" {
			found = true
		}
	}
	if !found {
		t.Errorf("custom name missing from MatcherNames: %v", MatcherNames())
	}
}

func TestSystemMatcherByName(t *testing.T) {
	f := newSystemFixture(t, 11)
	survey := f.sys.Fingerprints()
	vac := f.sys.Vacant()

	opts := DefaultSystemOptions()
	opts.MatcherName = MatcherBayes
	sys, err := NewSystem(f.l, survey, vac, opts)
	if err != nil {
		t.Fatal(err)
	}
	y := averagedLive(f.dep.Channel, f.dep.Grid.Center(10), 0, 8)
	loc, err := sys.Locate(y)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Confidence == 0 {
		t.Error("bayes matcher selected by name should report a confidence")
	}

	opts.MatcherName = "no-such-matcher"
	if _, err := NewSystem(f.l, survey, vac, opts); !errors.Is(err, taflocerr.ErrBadRequest) {
		t.Errorf("unknown matcher name at construction: %v, want CodeBadRequest", err)
	}

	// "wknn" selects the built-in mask-aware path, equivalent to leaving
	// the name empty.
	opts.MatcherName = MatcherWKNN
	if _, err := NewSystem(f.l, survey, vac, opts); err != nil {
		t.Fatalf("wknn by name: %v", err)
	}
}

// TestReconstructContextCancelled checks both cancellation points: an
// already-cancelled context fails before initialization, and cancelling
// mid-run terminates within iterations, not at MaxIter.
func TestReconstructContextCancelled(t *testing.T) {
	f := newSystemFixture(t, 12)
	refCols, _ := f.dep.SurveyCells(f.sys.References(), 60)
	vac := f.dep.VacantCapture(60, 50)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.sys.UpdateContext(ctx, refCols, vac); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled update: %v, want context.Canceled in chain", err)
	} else if !errors.Is(err, taflocerr.ErrCancelled) {
		t.Fatalf("pre-cancelled update: %v, want CodeCancelled", err)
	}

	// Mid-run: force a long run (tiny tolerance, huge iteration budget)
	// and cancel shortly after it starts. The solver must return well
	// before the iteration budget would.
	opts := DefaultLoLiOptions()
	opts.MaxIter = 1_000_000
	opts.Tol = 1e-300
	rc, err := NewReconstructorWithMask(f.l, f.l.Mask(), opts)
	if err != nil {
		t.Fatal(err)
	}
	in := UpdateInput{RefIdx: f.sys.References(), RefCols: refCols, Vacant: vac}
	ctx2, cancel2 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := rc.ReconstructContext(ctx2, in)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel2()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: %v, want context.Canceled in chain", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reconstruction did not terminate after cancellation")
	}

}
