package core

import (
	"math/rand"
	"sort"
	"testing"

	"tafloc/internal/mat"
)

func lowRankMatrix(rng *rand.Rand, m, n, r int, noise float64) *mat.Matrix {
	l := mat.New(m, r)
	rr := mat.New(n, r)
	l.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	rr.Apply(func(i, j int, v float64) float64 { return rng.NormFloat64() })
	x := mat.New(m, n)
	mat.MulTInto(x, l, rr)
	if noise > 0 {
		x.Apply(func(i, j int, v float64) float64 { return v + noise*rng.NormFloat64() })
	}
	return x
}

func TestSelectReferencesForcedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankMatrix(rng, 10, 50, 4, 0)
	refs, err := SelectReferences(x, ReferenceOptions{Count: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 7 {
		t.Fatalf("got %d refs, want 7", len(refs))
	}
	if !sort.IntsAreSorted(refs) {
		t.Fatalf("refs not sorted: %v", refs)
	}
	seen := map[int]bool{}
	for _, r := range refs {
		if r < 0 || r >= 50 || seen[r] {
			t.Fatalf("invalid ref set %v", refs)
		}
		seen[r] = true
	}
}

func TestSelectReferencesSpansColumnSpace(t *testing.T) {
	// For an exactly rank-4 matrix, any 4 leading pivot columns must span
	// the column space: projecting every column onto them leaves ~zero
	// residual.
	rng := rand.New(rand.NewSource(2))
	x := lowRankMatrix(rng, 12, 40, 4, 0)
	refs, err := SelectReferences(x, ReferenceOptions{Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	xr := x.SelectCols(refs)
	ridge, err := mat.NewRidge(xr, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	z := mat.New(4, 40)
	ridge.SolveInto(z, x)
	resid := mat.New(12, 40)
	mat.MulInto(resid, xr, z)
	mat.SubInto(resid, x, resid)
	if mat.FrobNorm(resid) > 1e-6*mat.FrobNorm(x) {
		t.Fatalf("reference columns do not span: residual %g", mat.FrobNorm(resid))
	}
}

func TestSelectReferencesAutoCountPicksAtLeastRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := lowRankMatrix(rng, 10, 60, 5, 0.01)
	refs, err := SelectReferences(x, ReferenceOptions{EnergyFrac: 0.995, Min: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 5 {
		t.Fatalf("auto count %d below true rank 5", len(refs))
	}
	if len(refs) > 20 {
		t.Fatalf("auto count %d implausibly large", len(refs))
	}
}

func TestSelectReferencesMinClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := lowRankMatrix(rng, 8, 30, 2, 0)
	refs, err := SelectReferences(x, ReferenceOptions{EnergyFrac: 0.99, Min: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10 {
		t.Fatalf("min clamp not applied: %d", len(refs))
	}
}

func TestSelectReferencesMaxClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := lowRankMatrix(rng, 10, 30, 8, 0.5)
	refs, err := SelectReferences(x, ReferenceOptions{EnergyFrac: 0.9999, Min: 1, Max: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 5 {
		t.Fatalf("max clamp not applied: %d", len(refs))
	}
}

func TestSelectReferencesCountExceedingColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := lowRankMatrix(rng, 5, 6, 2, 0)
	refs, err := SelectReferences(x, ReferenceOptions{Count: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 6 {
		t.Fatalf("count clamp to N failed: %d", len(refs))
	}
}

func TestSelectReferencesEmptyErrors(t *testing.T) {
	if _, err := SelectReferences(nil, DefaultReferenceOptions()); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := SelectReferences(mat.New(0, 0), DefaultReferenceOptions()); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestReferenceCountForLayout(t *testing.T) {
	l := testLayout(t)
	n := ReferenceCountForLayout(l, 10)
	if n < 10 {
		t.Fatalf("below min: %d", n)
	}
	if n > l.N() {
		t.Fatalf("count %d exceeds cells %d", n, l.N())
	}
	// Scales with links: the layout has 10 links so M+1 = 11 >= 10.
	if n != 11 {
		t.Fatalf("count = %d, want 11 for 10 links", n)
	}
}
