// Package poolpair enforces the pooled-Scratch discipline behind the
// 0-alloc hot path: every borrow from a recycling pool
// (core.GetScratch) must have its matching Put deferred in the same
// function, so the Scratch returns to the pool on every path —
// including panics and early returns the author forgot about. A Get
// whose result is returned directly hands the borrow to the caller.
//
// The analyzer also catches the defer-ordering footgun: a deferred Put
// evaluates its argument at defer time, so `defer Put(x)` placed before
// `x = Get(...)` returns the stale previous value, not the borrow.
package poolpair

import (
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
	Name:     "poolpair",
	Doc:      "pool borrows (GetScratch) must defer the matching Put",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// pairs maps Get function full names to the required Put full name.
var pairs = "tafloc/internal/core.GetScratch=tafloc/internal/core.PutScratch"

func init() {
	Analyzer.Flags.StringVar(&pairs, "pairs", pairs,
		"comma-separated Get=Put function full-name pairs to enforce")
}

func run(pass *analysis.Pass) (any, error) {
	getToPut := make(map[string]string)
	for _, p := range strings.Split(pairs, ",") {
		if get, put, ok := strings.Cut(strings.TrimSpace(p), "="); ok {
			getToPut[get] = put
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || tags.TestFile(pass.Fset, fd.Pos()) {
			return
		}
		checkFunc(pass, fd, getToPut)
	})
	return nil, nil
}

// borrow is one Get call site and the variable its result landed in.
type borrow struct {
	call *ast.CallExpr
	put  string       // required Put full name
	dest types.Object // nil when the result is not a plain variable
	ret  bool         // result returned directly: ownership moves to the caller
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, getToPut map[string]string) {
	var borrows []borrow

	// deferredPuts[obj] holds the Put names deferred with that variable
	// as argument, with the defer statement position for order checks.
	type deferredPut struct {
		name string
		pos  token.Pos
	}
	deferredPuts := make(map[types.Object][]deferredPut)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			name, ok := fullName(pass.TypesInfo, n.Call)
			if !ok || !isPut(name, getToPut) {
				return true
			}
			if len(n.Call.Args) == 1 {
				if obj := identObj(pass.TypesInfo, n.Call.Args[0]); obj != nil {
					deferredPuts[obj] = append(deferredPuts[obj], deferredPut{name, n.Pos()})
				}
			}
			return true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, ok := fullName(pass.TypesInfo, call)
				if !ok {
					continue
				}
				put, isGet := getToPut[name]
				if !isGet {
					continue
				}
				var dest types.Object
				if len(n.Lhs) == len(n.Rhs) {
					dest = identObj(pass.TypesInfo, n.Lhs[i])
				}
				borrows = append(borrows, borrow{call: call, put: put, dest: dest})
			}
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := res.(*ast.CallExpr); ok {
					if name, ok := fullName(pass.TypesInfo, call); ok {
						if put, isGet := getToPut[name]; isGet {
							borrows = append(borrows, borrow{call: call, put: put, ret: true})
						}
					}
				}
			}
			return true
		case *ast.CallExpr:
			// A bare Get whose result is dropped or passed straight into
			// another call: never pairable in this function.
			name, ok := fullName(pass.TypesInfo, n)
			if !ok {
				return true
			}
			if put, isGet := getToPut[name]; isGet && !recorded(borrows, n) {
				borrows = append(borrows, borrow{call: n, put: put})
			}
			return true
		}
		return true
	})

	for _, b := range borrows {
		if b.ret {
			continue // ownership explicitly moves to the caller
		}
		short := shortName(b.put)
		if b.dest == nil {
			pass.Reportf(b.call.Pos(),
				"pooled borrow is not assigned to a variable, so no %s can pair with it; assign it and defer %s",
				short, short)
			continue
		}
		puts := deferredPuts[b.dest]
		paired := false
		for _, p := range puts {
			if p.name != b.put {
				pass.Reportf(p.pos, "deferred %s does not match the pool %s was borrowed from; the matching return is %s",
					shortName(p.name), b.dest.Name(), short)
				continue
			}
			if p.pos < b.call.Pos() {
				pass.Reportf(p.pos,
					"defer %s(%s) runs before %s is borrowed: a deferred call evaluates its argument at defer time, so this returns the stale previous value; move the defer after the borrow",
					short, b.dest.Name(), b.dest.Name())
			}
			paired = true
		}
		if !paired {
			pass.Reportf(b.call.Pos(),
				"borrow from %s without a deferred %s on %s: the buffer leaks from the pool on every return path; defer %s(%s) right after the borrow",
				shortName(nameOf(pass.TypesInfo, b.call)), short, b.dest.Name(), short, b.dest.Name())
		}
	}
}

func recorded(borrows []borrow, call *ast.CallExpr) bool {
	for _, b := range borrows {
		if b.call == call {
			return true
		}
	}
	return false
}

func isPut(name string, getToPut map[string]string) bool {
	for _, put := range getToPut {
		if put == name {
			return true
		}
	}
	return false
}

// fullName resolves a call to its callee's FullName (package path
// qualified); ok is false for builtins, method values, and indirect
// calls.
func fullName(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return "", false
	}
	return fn.FullName(), true
}

func nameOf(info *types.Info, call *ast.CallExpr) string {
	name, _ := fullName(info, call)
	return name
}

func shortName(full string) string {
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
