// Command taflocvet is the project-invariant vet tool: a go/analysis
// unitchecker bundling the five analyzers in internal/analysis
// (atomiconce, ctxflow, errcode, lockorder, noalloc). Run it
// through the standard vet driver so it sees every package in the
// module with full type information:
//
//	go build -o bin/taflocvet ./cmd/taflocvet
//	go vet -vettool=$(pwd)/bin/taflocvet ./...
//
// Add -json for machine-readable output — one object per package,
// keyed by analyzer, each diagnostic carrying "posn" and "message":
//
//	go vet -vettool=$(pwd)/bin/taflocvet -json ./...
//
// The default file:line:col format is what
// .github/problem-matchers/taflocvet.json matches, so CI annotates
// violations inline on pull requests.
//
// CI runs exactly that, with every analyzer enabled, as a hard gate
// (see .github/workflows and docs/INVARIANTS.md for the contract each
// analyzer enforces).
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"tafloc/internal/analysis"
)

func main() {
	unitchecker.Main(analysis.Analyzers()...)
}
