package mat

import (
	"runtime"
	"testing"
)

// fill populates m with a deterministic pseudo-random pattern.
func fill(m *Matrix, seed uint64) {
	s := seed
	for i := range m.data {
		s = s*6364136223846793005 + 1442695040888963407
		m.data[i] = float64(int64(s>>20))/float64(1<<43) - 0.5
	}
}

// withWorkers runs f with GOMAXPROCS set to n, which sizes the
// parallel kernels, restoring the previous setting afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelForCoversRange checks every index is visited exactly once
// regardless of chunking.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 7, 100, 1001} {
			withWorkers(t, workers, func() {
				seen := make([]int32, n)
				ParallelFor(n, 10, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
					}
				}
			})
		}
	}
}

// TestParallelKernelsMatchSerial requires the fan-out kernels to be
// bitwise identical to their serial execution: partitioning is by
// independent output range, so per-element arithmetic order never
// changes with the worker count.
func TestParallelKernelsMatchSerial(t *testing.T) {
	a := New(67, 129)
	b := New(129, 83)
	c := New(67, 129) // for MulTInto: a * cᵀ
	fill(a, 1)
	fill(b, 2)
	fill(c, 3)

	products := func() (ab, act, ata *Matrix) {
		act = New(67, 67)
		MulTInto(act, a, c)
		return mul(a, b), act, TMul(a, a)
	}
	var mulS, mulTS, tmulS *Matrix
	withWorkers(t, 1, func() {
		mulS, mulTS, tmulS = products()
	})
	for _, workers := range []int{2, 5, 16} {
		withWorkers(t, workers, func() {
			ab, act, ata := products()
			if !ab.Equal(mulS, 0) {
				t.Errorf("workers=%d: MulInto differs from serial", workers)
			}
			if !act.Equal(mulTS, 0) {
				t.Errorf("workers=%d: MulTInto differs from serial", workers)
			}
			if !ata.Equal(tmulS, 0) {
				t.Errorf("workers=%d: TMul differs from serial", workers)
			}
		})
	}
}
