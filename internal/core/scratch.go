package core

import "sync"

// Scratch holds the per-call working buffers of the matchers: candidate
// distances, posterior accumulators, and the refinement interpolation
// vectors. Threading one Scratch through repeated Locate calls makes
// the steady-state match path allocation-free — the buffers grow to the
// largest database seen and are reused verbatim afterwards. A Scratch
// is not safe for concurrent use; give each goroutine its own (the
// pooled GetScratch/PutScratch pair is the cheap way to do that).
type Scratch struct {
	dists []float64
	logp  []float64
	post  []float64
	f     []float64
	fObs  []bool
	cands []cand
}

// cand is one candidate cell with its fingerprint-space distance.
type cand struct {
	j int
	d float64
}

// NewScratch returns an empty Scratch; buffers are allocated lazily on
// first use and reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch borrows a Scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the shared pool. The caller must not
// use sc afterwards.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// floats returns *buf resized to length n, growing it when the
// capacity is insufficient. The grown buffer is retained in the
// Scratch, so only the first call at a larger database allocates.
func (sc *Scratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = growFloats(n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growFloats allocates a fresh float buffer of length n. It stays out of
// line so that -gcflags=-m reports the make here, not at the call sites
// floats is inlined into: those sit inside //tafloc:noalloc matchers,
// where scripts/escapecheck would count it as a hot-path escape.
//
//go:noinline
func growFloats(n int) []float64 { return make([]float64, n) }

// distances returns the candidate-distance buffer, length n.
//
//tafloc:noalloc
func (sc *Scratch) distances(n int) []float64 { return sc.floats(&sc.dists, n) }

// posteriors returns the two posterior buffers (log-likelihoods and
// normalized masses), each length n.
//
//tafloc:noalloc
func (sc *Scratch) posteriors(n int) ([]float64, []float64) {
	return sc.floats(&sc.logp, n), sc.floats(&sc.post, n)
}

// candidates returns the candidate buffer, length n.
//
//tafloc:noalloc steady state reuses the retained buffer; only growth allocates.
func (sc *Scratch) candidates(n int) []cand {
	if cap(sc.cands) < n {
		sc.cands = make([]cand, n) //tafloc:alloc-ok amortized grow to the largest database seen
	}
	sc.cands = sc.cands[:n]
	return sc.cands
}

// interp returns the refinement interpolation buffers, each length m.
//
//tafloc:noalloc steady state reuses the retained buffers; only growth allocates.
func (sc *Scratch) interp(m int) ([]float64, []bool) {
	f := sc.floats(&sc.f, m)
	if cap(sc.fObs) < m {
		sc.fObs = make([]bool, m) //tafloc:alloc-ok amortized grow to the largest database seen
	}
	sc.fObs = sc.fObs[:m]
	return f, sc.fObs
}
