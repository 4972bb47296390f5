package mat

import "testing"

// fill populates m with a deterministic pseudo-random pattern.
func fill(m *Matrix, seed uint64) {
	s := seed
	for i := range m.data {
		s = s*6364136223846793005 + 1442695040888963407
		m.data[i] = float64(int64(s>>20))/float64(1<<43) - 0.5
	}
}

// withWorkers runs f twice, serial then with n workers, restoring the
// previous setting afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
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
	c := New(67, 129) // for MulT: c * aᵀ-shaped partner
	fill(a, 1)
	fill(b, 2)
	fill(c, 3)

	var mulS, mulTS, tmulS *Matrix
	withWorkers(t, 1, func() {
		mulS = Mul(a, b)
		mulTS = MulT(a, c)
		tmulS = TMul(a, a)
	})
	for _, workers := range []int{2, 5, 16} {
		withWorkers(t, workers, func() {
			if !Mul(a, b).Equal(mulS, 0) {
				t.Errorf("workers=%d: Mul differs from serial", workers)
			}
			if !MulT(a, c).Equal(mulTS, 0) {
				t.Errorf("workers=%d: MulT differs from serial", workers)
			}
			if !TMul(a, a).Equal(tmulS, 0) {
				t.Errorf("workers=%d: TMul differs from serial", workers)
			}
		})
	}
}

// TestSetWorkers checks the setter contract.
func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if w := Workers(); w != 3 {
		t.Errorf("Workers() = %d after SetWorkers(3)", w)
	}
	if old := SetWorkers(0); old != 3 {
		t.Errorf("SetWorkers returned %d, want 3", old)
	}
	if w := Workers(); w < 1 {
		t.Errorf("default Workers() = %d, want >= 1", w)
	}
}
