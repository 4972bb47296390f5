// Package a is the atomiconce fixture: RCU pointers that must be
// loaded once per function, and an accessor method counted like a Load.
//
// Regression notes:
//   - doubleAccessor mirrors serve.evictZone's deliberate double
//     sys.Model(), which is annotated //tafloc:reload in production
//     (suppressedReload here proves the annotation works).
//   - closureLoad mirrors the retry closures in serve: a Load inside a
//     func literal is its own execution context and must not combine
//     with the enclosing function's single Load.
package a

import "sync/atomic"

type Model struct{ Gen int }

type Sys struct {
	p atomic.Pointer[Model]
	q atomic.Pointer[Model]
}

func (s *Sys) Model() *Model { return s.p.Load() }

func singleLoad(s *Sys) int {
	m := s.p.Load()
	return m.Gen + m.Gen
}

func doubleLoad(s *Sys) (int, int) {
	a := s.p.Load().Gen
	b := s.p.Load().Gen // want `second Load of s\.p in doubleLoad`
	return a, b
}

func distinctFields(s *Sys) (int, int) {
	return s.p.Load().Gen, s.q.Load().Gen // two different pointers: fine
}

func distinctReceivers(s1, s2 *Sys) (int, int) {
	return s1.p.Load().Gen, s2.p.Load().Gen // same field, different objects: fine
}

func suppressedReload(s *Sys) bool {
	m := s.p.Load()
	sideEffect()
	return m == s.p.Load() //tafloc:reload fixture: staleness re-check after the side effect
}

func doubleAccessor(s *Sys) (int, int) {
	a := s.Model().Gen
	b := s.Model().Gen // want `second call of Model on s in doubleAccessor`
	return a, b
}

func closureLoad(s *Sys) func() int {
	g := s.p.Load().Gen
	_ = g
	return func() int { return s.p.Load().Gen } // own context: fine
}

func sideEffect() {}
