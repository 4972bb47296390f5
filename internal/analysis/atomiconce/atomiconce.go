// Package atomiconce flags torn-mix reads of RCU-published state: a
// function that calls .Load() more than once on the same atomic.Pointer
// field can observe two different generations of the pointed-to value
// and silently mix them — the bug class the core.Model hammer test only
// catches probabilistically, pinned here at vet time.
//
// Two rules:
//
//  1. At most one .Load() call site per atomic.Pointer field chain per
//     function. A deliberate re-check (staleness detection after a side
//     effect) is annotated //tafloc:reload with a justification.
//  2. The same rule for accessor methods that are documented to be one
//     atomic load (configurable; (*tafloc/internal/core.System).Model
//     by default): calling sys.Model() twice mixes generations exactly
//     like a double Load.
//
// That a typed atomic field is touched only through its method set is
// atomicmix's rule, not this one's.
package atomiconce

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"tafloc/internal/analysis/tags"
)

var Analyzer = &analysis.Analyzer{
	Name:     "atomiconce",
	Doc:      "flags multiple Loads of the same atomic.Pointer per function",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// accessors lists method full names (as types.Func.FullName renders
// them) that are one atomic pointer load in disguise.
var accessors = "(*tafloc/internal/core.System).Model"

func init() {
	Analyzer.Flags.StringVar(&accessors, "accessors", accessors,
		"comma-separated method full names counted like atomic.Pointer Loads")
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	accessorSet := make(map[string]bool)
	for _, a := range strings.Split(accessors, ",") {
		if a = strings.TrimSpace(a); a != "" {
			accessorSet[a] = true
		}
	}

	suppressed := make(map[*ast.File]map[int]bool)
	for _, f := range pass.Files {
		suppressed[f] = tags.SuppressedLines(pass.Fset, f, tags.Reload)
	}
	fileOf := func(pos token.Pos) *ast.File {
		for _, f := range pass.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return f
			}
		}
		return nil
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || tags.TestFile(pass.Fset, fd.Pos()) {
			return
		}
		sup := suppressed[fileOf(fd.Pos())]
		checkLoads(pass, fd, accessorSet, sup)
	})
	return nil, nil
}

// checkLoads enforces rules 1 and 2 inside one function.
func checkLoads(pass *analysis.Pass, fd *ast.FuncDecl, accessorSet map[string]bool, suppressed map[int]bool) {
	type site struct {
		pos  token.Pos
		what string // "Load of z.sys" / "call of (...).Model"
	}
	seen := make(map[string][]site)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure is its own execution context (often a retry or
			// goroutine body); its Loads do not mix with the enclosing
			// function's single read.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "Load" && len(call.Args) == 0 && isAtomicPointer(pass.TypesInfo.TypeOf(sel.X)) {
			if key, ok := chainKey(pass.TypesInfo, sel.X); ok {
				seen[key] = append(seen[key], site{call.Pos(),
					fmt.Sprintf("Load of %s", types.ExprString(sel.X))})
			}
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && accessorSet[fn.FullName()] {
			if key, ok := chainKey(pass.TypesInfo, sel.X); ok {
				seen[key+"."+fn.FullName()] = append(seen[key+"."+fn.FullName()], site{call.Pos(),
					fmt.Sprintf("call of %s on %s", sel.Sel.Name, types.ExprString(sel.X))})
			}
		}
		return true
	})

	for _, sites := range seen {
		if len(sites) < 2 {
			continue
		}
		for _, s := range sites[1:] {
			if suppressed[pass.Fset.Position(s.pos).Line] {
				continue
			}
			pass.Reportf(s.pos,
				"second %s in %s: repeated loads of an RCU pointer can mix two generations; load once and reuse, or annotate //tafloc:reload with a justification (first load at %s)",
				s.what, fd.Name.Name, pass.Fset.Position(sites[0].pos))
		}
	}
}

// chainKey renders an ident/selector chain as a stable key rooted at a
// types.Object (so two mentions of z.sys key identically while zones
// from different range statements do not collide with struct-typed
// globals of the same spelling). Expressions that are not pure
// ident/selector chains are not keyable.
func chainKey(info *types.Info, e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("%p", obj), true
	case *ast.SelectorExpr:
		base, ok := chainKey(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return chainKey(info, e.X)
	}
	return "", false
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[T] (or a
// pointer to one, the usual shape behind a selector).
func isAtomicPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}
