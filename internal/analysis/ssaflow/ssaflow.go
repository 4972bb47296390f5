// Package ssaflow is the flow-sensitive backbone of the lockorder
// analyzer. The Go toolchain's vendored x/tools subset (the only source
// available to this hermetic build) does not ship go/ssa, so instead of
// SSA form lockorder runs sparse dataflow directly over the
// per-function control-flow graphs that go/cfg (via the ctrlflow pass)
// builds: it instantiates Dataflow with its lattice (the set of held
// lock classes), runs the worklist fixpoint to get block-entry states,
// and then replays each block's transfer function to visit every
// program point with its exact abstract state.
//
// The package also holds the two lookups an interprocedural analyzer
// needs: static callee resolution (StaticCallee) and stable
// cross-package "storage class" keys for the lvalues it reasons about
// — struct fields like Service.mu, package-level vars, and function
// locals (ResolveClass).
package ssaflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"tafloc/internal/analysis/tags"
)

// Fn is one function body in the package: a declared function or
// method (Obj set) or a function literal. CFG is nil for bodyless
// declarations.
type Fn struct {
	Obj *types.Func // nil for literals
	CFG *cfg.CFG
}

// Funcs is the Analyzer's result: every function body in the package
// with its CFG, in source order, skipping files the suite ignores
// (generated, build-excluded) and _test.go files.
type Funcs struct {
	All []*Fn
}

// Analyzer enumerates the package's function bodies and pairs each
// with its control-flow graph.
var Analyzer = &analysis.Analyzer{
	Name:       "ssaflow",
	Doc:        "pair every function body with its go/cfg control-flow graph (internal helper pass)",
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf((*Funcs)(nil)),
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	fns := &Funcs{}
	for _, file := range pass.Files {
		if tags.SkipFile(file) || tags.TestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn := &Fn{}
				if obj, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
					fn.Obj = obj
				}
				if n.Body != nil {
					fn.CFG = cfgs.FuncDecl(n)
				}
				fns.All = append(fns.All, fn)
			case *ast.FuncLit:
				fns.All = append(fns.All, &Fn{CFG: cfgs.FuncLit(n)})
			}
			return true
		})
	}
	return fns, nil
}

// Dataflow is a forward iterative dataflow problem over a go/cfg CFG.
// S is the abstract state (typically a map); the callbacks define the
// lattice:
//
//   - Clone deep-copies a state (the engine never aliases states
//     across blocks).
//   - MergeInto joins src into dst in place (union for may-analyses,
//     intersection for must-analyses) and reports whether dst changed;
//     it must not mutate src.
//   - Transfer applies one CFG node (a statement or control-flow
//     condition expression) to the state; it may mutate and return s.
//
// Transfer functions must be monotone; a finite set lattice (lockorder's
// set of lock classes) guarantees termination.
type Dataflow[S any] struct {
	Clone     func(S) S
	MergeInto func(dst, src S) bool
	Transfer  func(n ast.Node, s S) S
}

// Run computes the fixpoint from the given entry state and returns the
// state at the entry of each block (indexed by Block.Index) plus a
// reachability mask; unreachable blocks have a zero S and false mask.
func (d *Dataflow[S]) Run(g *cfg.CFG, entry S) ([]S, []bool) {
	n := len(g.Blocks)
	states := make([]S, n)
	seen := make([]bool, n)
	if n == 0 {
		return states, seen
	}
	states[0] = d.Clone(entry)
	seen[0] = true
	work := []*cfg.Block{g.Blocks[0]}
	inQueue := make([]bool, n)
	inQueue[0] = true
	// Hard cap: |blocks| * |lattice height| is bounded for a finite
	// set lattice, but a bug in a Transfer must not hang go vet.
	budget := 1000 * (n + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		inQueue[b.Index] = false
		out := d.Clone(states[b.Index])
		for _, node := range b.Nodes {
			out = d.Transfer(node, out)
		}
		for _, succ := range b.Succs {
			i := succ.Index
			if !seen[i] {
				states[i] = d.Clone(out)
				seen[i] = true
			} else if !d.MergeInto(states[i], out) {
				continue
			}
			if !inQueue[i] {
				inQueue[i] = true
				work = append(work, succ)
			}
		}
	}
	return states, seen
}

// Walk replays the converged analysis: for every reachable block in
// index order it re-applies Transfer node by node, calling visit with
// each node and the abstract state immediately before it. Analyzers
// emit diagnostics from visit (never from Transfer, which runs many
// times during the fixpoint).
func (d *Dataflow[S]) Walk(g *cfg.CFG, states []S, seen []bool, visit func(n ast.Node, before S)) {
	for _, b := range g.Blocks {
		if !seen[b.Index] {
			continue
		}
		s := d.Clone(states[b.Index])
		for _, node := range b.Nodes {
			visit(node, s)
			s = d.Transfer(node, s)
		}
	}
}

// StaticCallee resolves a call expression to the declared function or
// method it statically invokes, or nil for calls through interfaces,
// function values, and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(info, call)
}

// ResolveClass maps an lvalue expression (s.mu, z.resMu, pkgVar,
// localVar) to the object that anchors its storage class and a stable
// key for that class. Field keys are owner-qualified
// ("tafloc/internal/serve.zone.resMu") so they agree between a method
// that touches its own receiver and a caller touching the same field
// through any instance; package-var keys are "pkgpath.name"; local
// keys include the declaration site so same-named locals in different
// functions stay distinct.
func ResolveClass(info *types.Info, fset *token.FileSet, e ast.Expr) (types.Object, string, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ResolveClass(info, fset, e.X)
		}
	case *ast.StarExpr:
		return ResolveClass(info, fset, e.X)
	case *ast.SelectorExpr:
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !obj.IsField() {
			break
		}
		owner := namedOf(info.TypeOf(e.X))
		if owner == "" {
			break
		}
		return obj, owner + "." + obj.Name(), true
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok {
			break
		}
		if obj.IsField() {
			break // bare field ident (composite lit key); no owner context
		}
		pkgpath := "_"
		if obj.Pkg() != nil {
			pkgpath = obj.Pkg().Path()
		}
		if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj, pkgpath + "." + obj.Name(), true
		}
		p := fset.Position(obj.Pos())
		return obj, fmt.Sprintf("%s.%s@%s:%d", pkgpath, obj.Name(), filepath.Base(p.Filename), p.Line), true
	}
	return nil, "", false
}

// FieldKey builds the same owner-qualified key ResolveClass produces
// for a field access, from the declaration side: the struct type's
// package path and name plus the field name. Used when scanning type
// declarations for rank annotations.
func FieldKey(pkgpath, typeName, fieldName string) string {
	return pkgpath + "." + typeName + "." + fieldName
}

func namedOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj() != nil {
		pkgpath := "_"
		if n.Obj().Pkg() != nil {
			pkgpath = n.Obj().Pkg().Path()
		}
		return pkgpath + "." + n.Obj().Name()
	}
	return ""
}
