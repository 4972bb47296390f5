// Package analysis assembles the taflocvet analyzer suite: the
// project-specific go/analysis checkers that machine-check the repo's
// RCU, error-taxonomy, 0-alloc, and context contracts — plus, since
// v2, the flow-sensitive concurrency and taint checkers (lock order,
// atomic/plain field mixing, goroutine quiescence, wire taint) that
// reason across calls and packages over go/cfg CFGs. Eight analyzers
// in all.
//
// The suite is consumed two ways: cmd/taflocvet wraps it in a
// unitchecker so `go vet -vettool` drives it across the module, and the
// per-analyzer tests run each checker against testdata fixtures through
// internal/analysis/vettest. docs/INVARIANTS.md is the human-facing
// catalogue of what each analyzer pins and how to annotate exceptions.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"tafloc/internal/analysis/atomicmix"
	"tafloc/internal/analysis/atomiconce"
	"tafloc/internal/analysis/ctxflow"
	"tafloc/internal/analysis/errcode"
	"tafloc/internal/analysis/goroleak"
	"tafloc/internal/analysis/lockorder"
	"tafloc/internal/analysis/noalloc"
	"tafloc/internal/analysis/wiretaint"
)

// Analyzers returns the full taflocvet suite in stable order: the
// syntactic v1 checkers first, then the flow-sensitive v2 checkers.
func Analyzers() []*analysis.Analyzer {
	return append(Syntactic(), Flow()...)
}

// Syntactic returns the v1 single-function AST checkers.
func Syntactic() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomiconce.Analyzer,
		ctxflow.Analyzer,
		errcode.Analyzer,
		noalloc.Analyzer,
	}
}

// Flow returns the v2 flow-sensitive, fact-propagating checkers (CI
// runs these as their own timed step).
func Flow() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		goroleak.Analyzer,
		lockorder.Analyzer,
		wiretaint.Analyzer,
	}
}
