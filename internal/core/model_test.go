package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tafloc/internal/geom"
	"tafloc/internal/mat"
)

// TestLocateConsistentDuringUpdate hammers Locate from many goroutines
// while Update swaps the Model mid-flight (run with -race). LoLi-IR is
// deterministic for a fixed input, so the expected location under each
// calibration is known exactly: every concurrent result must equal one
// of them — a reader sees entirely the old Model or entirely the new
// one, never a torn mix of the two.
func TestLocateConsistentDuringUpdate(t *testing.T) {
	f := newSystemFixture(t, 5)
	refs := f.sys.References()
	inputs := []struct {
		refCols *mat.Matrix
		vacant  []float64
	}{}
	for _, day := range []float64{20, 60} {
		refCols, _ := f.dep.SurveyCells(refs, day)
		inputs = append(inputs, struct {
			refCols *mat.Matrix
			vacant  []float64
		}{refCols, f.dep.VacantCapture(day, 50)})
	}
	y := f.dep.Channel.MeasureLive(geom.Point{X: 2.1, Y: 1.5}, 20)

	// Expected location under each calibration, computed serially first.
	expect := make(map[Location]string)
	day0, err := f.sys.Locate(y)
	if err != nil {
		t.Fatal(err)
	}
	expect[day0] = "day0"
	for i, in := range inputs {
		if _, err := f.sys.UpdateContext(context.Background(), in.refCols, in.vacant); err != nil {
			t.Fatal(err)
		}
		loc, err := f.sys.Locate(y)
		if err != nil {
			t.Fatal(err)
		}
		expect[loc] = fmt.Sprintf("update-%d", i)
	}

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for {
				select {
				case <-stop:
					return
				default:
				}
				loc, err := f.sys.Model().Locate(y, sc)
				if err != nil {
					errs <- err.Error()
					return
				}
				if _, ok := expect[loc]; !ok {
					errs <- fmt.Sprintf("torn read: %+v matches no published calibration", loc)
					return
				}
			}
		}()
	}
	for round := 0; round < 4; round++ {
		in := inputs[round%len(inputs)]
		if _, err := f.sys.UpdateContext(context.Background(), in.refCols, in.vacant); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestLocateZeroAllocSteadyState is the acceptance pin for the scratch
// refactor: once warmed up, localization with every built-in matcher
// (both through System.Locate's pooled scratch and through an explicit
// reused Scratch on the Model) allocates nothing per call. Under -race
// only the reused-Scratch half runs: the race build's sync.Pool drops a
// random quarter of Puts on purpose, so the pooled path rebuilds a
// Scratch now and then (about one allocation per call for bayes, whose
// Scratch holds three buffers).
func TestLocateZeroAllocSteadyState(t *testing.T) {
	f := newSystemFixture(t, 6)
	y := f.dep.Channel.MeasureLive(geom.Point{X: 1.2, Y: 2.0}, 0)
	for _, name := range []string{MatcherNN, MatcherKNN, MatcherBayes, MatcherWKNN} {
		opts := DefaultSystemOptions()
		opts.MatcherName = name
		sys, err := NewSystem(f.l, f.sys.Fingerprints(), f.sys.Vacant(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Locate(y); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := sys.Locate(y); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s: System.Locate allocates %.1f/op in steady state, want 0", name, allocs)
			}
		}
		m := sys.Model()
		sc := NewScratch()
		if _, err := m.Locate(y, sc); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := m.Locate(y, sc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Model.Locate with reused scratch allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestModelSurvivesUpdate pins the RCU contract: a Model loaded before
// an Update keeps serving the old calibration unchanged afterwards.
func TestModelSurvivesUpdate(t *testing.T) {
	f := newSystemFixture(t, 7)
	old := f.sys.Model()
	y := f.dep.Channel.MeasureLive(geom.Point{X: 2.4, Y: 1.2}, 0)
	before, err := old.Locate(y, nil)
	if err != nil {
		t.Fatal(err)
	}
	refCols, _ := f.dep.SurveyCells(f.sys.References(), 45)
	if _, err := f.sys.UpdateContext(context.Background(), refCols, f.dep.VacantCapture(45, 50)); err != nil {
		t.Fatal(err)
	}
	if f.sys.Model() == old {
		t.Fatal("Update did not publish a new Model")
	}
	after, err := old.Locate(y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("retained Model drifted across Update: %+v then %+v", before, after)
	}
}

// TestScratchPoolReuse checks a reused Scratch's buffers grow to the
// database size on first use and then stop allocating, for every
// built-in matcher.
func TestScratchPoolReuse(t *testing.T) {
	l := testLayout(t)
	truth, _ := syntheticTruth(l, rand.New(rand.NewSource(13)))
	m := mustModel(t, l, truth)
	y := truth.Col(3)
	sc := NewScratch()
	for _, matcher := range []Matcher{NNMatcher{}, KNNMatcher{}, BayesMatcher{}, WeightedKNNMatcher{}} {
		if _, err := matcher.Match(m, y, sc); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := matcher.Match(m, y, sc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%T: reused scratch allocates %.1f/op, want 0", matcher, allocs)
		}
	}
}
