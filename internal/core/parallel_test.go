package core

import (
	"math/rand"
	"runtime"
	"testing"

	"tafloc/internal/geom"
)

// TestParallelReconstructMatchesSerial requires a full LoLi-IR run to be
// bitwise identical under parallel fan-out: every kernel partitions by
// independent output range, so GOMAXPROCS, which sizes the fan-out,
// must not change results.
func TestParallelReconstructMatchesSerial(t *testing.T) {
	grid, err := geom.NewGrid(7.2, 4.8, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(geom.CrossedDeployment(7.2, 4.8, 10), grid, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	truth, vac := syntheticTruth(layout, rand.New(rand.NewSource(11)))
	rc, err := NewReconstructor(layout, DefaultLoLiOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := makeUpdateInput(layout, truth, vac, pickRefs(layout, 10))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := rc.Reconstruct(in)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := rc.Reconstruct(in)
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.X.Equal(serial.X, 0) {
		t.Error("parallel reconstruction differs from serial")
	}
	if parallel.Iterations != serial.Iterations || parallel.Rank != serial.Rank {
		t.Errorf("parallel run took rank %d / %d iters, serial rank %d / %d",
			parallel.Rank, parallel.Iterations, serial.Rank, serial.Iterations)
	}
}
