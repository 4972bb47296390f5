package tafloc_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"tafloc"
)

// TestReconstructGolden pins the exact bits of LoLi-IR's output: X, the
// objective trace, the rank and the iteration count of two successive
// updates on two rooms. A refactor of the solver's buffers or kernels
// must keep every floating-point operation's operands and order, and
// this test tells when one did not.
func TestReconstructGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are pinned on amd64; on %s the compiler may fuse x*y+z into one FMA, which rounds differently", runtime.GOARCH)
	}
	cases := []struct {
		edge  float64
		day   float64
		sum   string
		rank  int
		iters int
	}{
		{6, 45, "9fa2682ad3b52c0038f92f0f01b3e8433be141ddf01deee52a5c262e86c5ed16", 8, 40},
		{6, 90, "bdc5998702b6100b541a21234724320349c321871d789b99bd8517442a553f70", 8, 40},
		{12, 45, "45f0fdf14f6e55d4a9550b29c21e247cfab363d5378e514916206d5eda0001b1", 15, 40},
		{12, 90, "fbe6a70ceb52d0f2045e530f3cf37a437a0529ed39e0ff4e132fe03ae03387a4", 15, 40},
	}
	var (
		sys  *tafloc.System
		dep  *tafloc.Deployment
		edge float64
	)
	for _, c := range cases {
		if sys == nil || c.edge != edge {
			var err error
			if dep, err = tafloc.NewDeployment(tafloc.SquareConfig(c.edge)); err != nil {
				t.Fatal(err)
			}
			if sys, err = tafloc.OpenDeployment(dep); err != nil {
				t.Fatal(err)
			}
			edge = c.edge
		}
		refCols, _ := dep.SurveyCells(sys.References(), c.day)
		rec, err := sys.UpdateContext(context.Background(), refCols, dep.VacantCapture(c.day, 100))
		if err != nil {
			t.Fatal(err)
		}
		if got := reconstructionSum(rec); got != c.sum || rec.Rank != c.rank || rec.Iterations != c.iters {
			t.Errorf("%gm room, day %g: sum %s rank %d iterations %d; want %s rank %d iterations %d",
				c.edge, c.day, got, rec.Rank, rec.Iterations, c.sum, c.rank, c.iters)
		}
	}
}

// reconstructionSum is a sha256 of the float64 bits of rec.X (row-major)
// followed by those of its objective trace.
func reconstructionSum(rec *tafloc.Reconstruction) string {
	h := sha256.New()
	var b [8]byte
	for _, vals := range [][]float64{rec.X.Raw(), rec.Objective} {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReconstructAllocBudget bounds the heap one LoLi-IR update on the
// 12 m room allocates. The solver's alternation writes into one workspace
// sized once per update, so what remains is that workspace, the
// initializer and the new Model; an operator apply that allocated its own
// M x N products would allocate hundreds of MiB. At GOMAXPROCS 1, where
// the count does not depend on the fan-out, it also bounds the number of
// allocations (about 9.4k), so per-column garbage in the initializer
// cannot creep back unnoticed.
func TestReconstructAllocBudget(t *testing.T) {
	const (
		budget       = 16 << 20
		mallocBudget = 11000
	)
	dep, err := tafloc.NewDeployment(tafloc.SquareConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tafloc.OpenDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	refCols, _ := dep.SurveyCells(sys.References(), 45)
	vacant := dep.VacantCapture(45, 100)
	update := func() (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := sys.UpdateContext(context.Background(), refCols, vacant); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	if got, _ := update(); got >= budget {
		t.Fatalf("one update allocated %d bytes (%.1f MiB), budget %d MiB", got, float64(got)/(1<<20), budget>>20)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, got := update(); got >= mallocBudget {
		t.Fatalf("one update at GOMAXPROCS 1 made %d allocations, budget %d", got, mallocBudget)
	}
}
