package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAuditClean runs the escape audit over the module exactly as
// `go run ./scripts/escapecheck` does from the module root, so tier-1
// tests catch an unreviewed heap escape inside a //tafloc:noalloc
// function. Skipped in -short mode: it recompiles the audited packages
// with -gcflags=-m.
func TestAuditClean(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the audited packages with -gcflags=-m; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// go test runs in the package directory; the audit resolves its
	// package list and allowlist from the module root, two levels up.
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	if err := runAudit(); err != nil {
		t.Fatal(err)
	}
}
