// Package analysis assembles the taflocvet analyzer suite: the
// project-specific go/analysis checkers that machine-check the repo's
// RCU load-once, error-taxonomy, 0-alloc and context contracts, plus
// lockorder, the one flow-sensitive checker, which follows lock
// acquisitions across calls and packages over go/cfg CFGs. Five
// analyzers in all; each stays because it catches a planted violation
// that no test, race leg or standard vet check does.
//
// The suite is consumed two ways: cmd/taflocvet wraps it in a
// unitchecker so `go vet -vettool` drives it across the module, and the
// per-analyzer tests run each checker against testdata fixtures through
// internal/analysis/vettest. docs/INVARIANTS.md is the human-facing
// catalogue of what each analyzer pins and how to annotate exceptions.
package analysis

import (
	"golang.org/x/tools/go/analysis"

	"tafloc/internal/analysis/atomiconce"
	"tafloc/internal/analysis/ctxflow"
	"tafloc/internal/analysis/errcode"
	"tafloc/internal/analysis/lockorder"
	"tafloc/internal/analysis/noalloc"
)

// Analyzers returns the taflocvet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomiconce.Analyzer,
		ctxflow.Analyzer,
		errcode.Analyzer,
		lockorder.Analyzer,
		noalloc.Analyzer,
	}
}
