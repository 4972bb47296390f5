// Package tags defines the //tafloc:... source annotations the
// taflocvet analyzer suite understands, and shared helpers for reading
// them. Annotations are machine-checked contracts: a function-level
// marker asserts a property of the whole function (and the matching
// analyzer enforces or exempts it), a line-level marker suppresses one
// diagnostic on the construct it precedes or trails and must carry a
// justification after the marker word.
//
// See docs/INVARIANTS.md for the catalogue of markers and when each is
// acceptable.
package tags

import (
	"go/ast"
	"go/build/constraint"
	"go/token"
	"runtime"
	"strings"
)

// Function-level markers (written in the function's doc comment).
const (
	// NoAlloc asserts the function body introduces no allocating
	// constructs; enforced by the noalloc analyzer and audited by
	// scripts/escapecheck.
	NoAlloc = "tafloc:noalloc"
	// LegacyHTTP marks a frozen /v1 handler whose literal status codes
	// predate the taxonomy and are pinned byte-identical by fixture
	// tests; exempts the function from the errcode HTTP rule.
	LegacyHTTP = "tafloc:legacy-http"
	// Validates marks a function as a sanitizer for wire-tainted
	// values: it bounds-checks (or otherwise fail-closed validates)
	// everything it is handed before any indexing can happen, so taint
	// does not propagate through its parameters or results. Enforced
	// users: the wiretaint analyzer.
	Validates = "tafloc:validates"
)

// Line-level markers (suppress one diagnostic on the same or next line;
// everything after the marker word is the required justification).
const (
	// Reload permits a deliberate second Load of an RCU pointer (for
	// example a staleness re-check after a side effect).
	Reload = "tafloc:reload"
	// AllocOK permits one allocating construct inside a noalloc
	// function (for example an amortized grow path).
	AllocOK = "tafloc:alloc-ok"
	// Uncoded permits one error origination without a taxonomy code
	// (for example an internal sentinel that never crosses the API).
	Uncoded = "tafloc:uncoded"
	// CtxDetach permits a deliberate context.Background()/TODO() while
	// a caller context is in scope (for example a shutdown context that
	// must outlive the request that triggered it).
	CtxDetach = "tafloc:ctx-detach"
	// Detached permits a go statement that is deliberately not tied to
	// any quiesce path (no tracked WaitGroup, no executor submit); the
	// justification must say who reaps the goroutine.
	Detached = "tafloc:detached"
	// LockOK permits one lock acquisition that the lockorder analyzer
	// would otherwise reject (for example a same-class handoff where an
	// external invariant orders the two instances).
	LockOK = "tafloc:lock-ok"
	// TaintOK permits one indexing of a wire-tainted value (for example
	// an index already clamped by construction in a way the analyzer
	// cannot see).
	TaintOK = "tafloc:taint-ok"
)

// Field-level marker (written in the struct field's doc comment).
const (
	// LockOrder declares a mutex field's (or package-level mutex var's)
	// rank in the canonical lock order: "//tafloc:lock-order <rank>
	// <why>". Lower ranks are acquired first; the lockorder analyzer
	// rejects any acquisition of an equal or lower rank while a ranked
	// lock is held. The table of ranks lives in docs/INVARIANTS.md.
	LockOrder = "tafloc:lock-order"
	// MixedAccess exempts a field from the atomicmix single-discipline
	// rule (atomic in one place, plain elsewhere); the justification
	// must name the external synchronization that makes the plain
	// accesses safe.
	MixedAccess = "tafloc:mixed-access"
)

// Marked reports whether the comment group contains the marker: a
// comment line whose text (after "//") starts with the marker word,
// optionally followed by whitespace and a justification.
func Marked(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if hasMarker(c.Text, marker) {
			return true
		}
	}
	return false
}

// FuncMarked reports whether the function's doc comment carries the
// marker.
func FuncMarked(fd *ast.FuncDecl, marker string) bool {
	return Marked(fd.Doc, marker)
}

func hasMarker(comment, marker string) bool {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, marker) {
		return false
	}
	rest := text[len(marker):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == ':'
}

// SuppressedLines returns the set of lines a line-level marker covers
// in the file: the marker's own line (trailing comment form) and the
// line after it (own-line comment form).
func SuppressedLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	if Generated(f) {
		return nil // generated files carry no hand-written justifications
	}
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !hasMarker(c.Text, marker) {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// MarkerArg returns the first whitespace-delimited word after the
// marker in the comment group ("" if the marker is absent or bare).
// Used by markers that carry a machine-read argument, such as the rank
// in "//tafloc:lock-order 20 zone residency lock".
func MarkerArg(doc *ast.CommentGroup, marker string) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		if !hasMarker(c.Text, marker) {
			continue
		}
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, "/*")
		text = strings.TrimSpace(text)
		rest := strings.TrimLeft(strings.TrimPrefix(text, marker), " \t:")
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		return strings.TrimSuffix(rest, "*/")
	}
	return ""
}

// Generated reports whether the file carries the standard
// "// Code generated ... DO NOT EDIT." header. Generated files carry
// no hand-written justifications, so the suite neither honors markers
// in them nor reports diagnostics against them.
func Generated(f *ast.File) bool {
	return ast.IsGenerated(f)
}

// BuildExcluded reports whether the file's //go:build (or legacy
// // +build) constraints exclude it from a build for the current
// GOOS/GOARCH. Directory-walking tools (scripts/escapecheck) parse
// files the compiler would skip; their markers and spans must not
// leak into the current build's results.
func BuildExcluded(f *ast.File) bool {
	tags := map[string]bool{
		runtime.GOOS:   true,
		runtime.GOARCH: true,
		"gc":           true,
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(func(tag string) bool { return tags[tag] }) {
				return true
			}
		}
	}
	return false
}

// SkipFile reports whether the suite should ignore the file entirely:
// generated or excluded from the current build by constraints.
func SkipFile(f *ast.File) bool {
	return Generated(f) || BuildExcluded(f)
}

// TestFile reports whether the position lies in a _test.go file; the
// suite's analyzers check production code only (test code deliberately
// violates the contracts it pins — alloc counters, torn-read hammers).
func TestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
