package lint

// The interprocedural half of the analysis substrate: an index of every
// function in the module (declared functions and function literals),
// each with its statically resolved call sites. The index is built once
// per loaded Program; ctxflow walks it to find the functions a daemon
// goroutine reaches.

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncInfo is one analyzable function: a declared function/method or a
// function literal.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Obj  *types.Func   // nil for literals
	Body *ast.BlockStmt

	// Parent is the declared function lexically enclosing a literal
	// (nil for declarations and for literals in package-level values).
	Parent *FuncInfo

	// Calls are the statically resolvable call sites in Body, in
	// source order, excluding those inside nested literals (each
	// literal owns its own call list).
	Calls []*CallSite
}

// Name renders a human-readable identity ("(*Master).dispatch",
// "func literal in startDrain") for diagnostics.
func (f *FuncInfo) Name() string {
	if f.Obj != nil {
		return f.Obj.Name()
	}
	if f.Parent != nil {
		return "func literal in " + f.Parent.Name()
	}
	return "func literal"
}

// CallSite is one call expression with its resolved callee.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the module-internal target, when the call is static
	// (direct function or method call on a concrete type). nil for
	// calls into the standard library, interface dispatch, and calls
	// through function values.
	Callee *FuncInfo
	// Spawned marks `go f()` call sites.
	Spawned bool
}

// Index is the per-Program substrate snapshot.
type Index struct {
	// Funcs lists every declared function in the module, packages in
	// path order, functions in source order.
	Funcs []*FuncInfo
	// Lits lists every function literal, same ordering.
	Lits []*FuncInfo

	byObj map[*types.Func]*FuncInfo
	byLit map[*ast.FuncLit]*FuncInfo
}

// LitOf resolves a function literal to its info, or nil.
func (ix *Index) LitOf(lit *ast.FuncLit) *FuncInfo { return ix.byLit[lit] }

// All iterates declared functions and literals together.
func (ix *Index) All() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(ix.Funcs)+len(ix.Lits))
	out = append(out, ix.Funcs...)
	out = append(out, ix.Lits...)
	return out
}

// Index returns the program's substrate snapshot, building it on first
// use. Every analyzer in one Run shares the same snapshot: the module
// is parsed and type-checked once by the loader, and the CFGs, call
// graph, and summaries derived here are computed once on top of it.
func (p *Program) Index() *Index {
	if p.index != nil {
		return p.index
	}
	ix := &Index{
		byObj: map[*types.Func]*FuncInfo{},
		byLit: map[*ast.FuncLit]*FuncInfo{},
	}
	// Pass 1: register every declared function so call sites can
	// resolve forward references across packages.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				fi := &FuncInfo{Pkg: pkg, Decl: fd, Obj: obj, Body: fd.Body}
				ix.Funcs = append(ix.Funcs, fi)
				if obj != nil {
					ix.byObj[obj] = fi
				}
			}
		}
	}
	// Pass 2: collect literals and resolve call sites.
	for _, fi := range ix.Funcs {
		collectLits(ix, fi.Pkg, fi, fi.Body)
	}
	// Literals in package-level variable initializers.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					collectLits(ix, pkg, nil, gd)
				}
			}
		}
	}
	for _, fi := range ix.Funcs {
		fi.Calls = resolveCalls(ix, fi.Pkg, fi.Body)
	}
	for _, fi := range ix.Lits {
		fi.Calls = resolveCalls(ix, fi.Pkg, fi.Lit.Body)
	}
	sort.SliceStable(ix.Lits, func(i, j int) bool {
		return ix.Lits[i].Lit.Pos() < ix.Lits[j].Lit.Pos()
	})
	p.index = ix
	return ix
}

// collectLits registers every function literal under root (which is
// parent's body, or a package-level decl with parent nil).
func collectLits(ix *Index, pkg *Package, parent *FuncInfo, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if _, seen := ix.byLit[lit]; !seen {
				fi := &FuncInfo{Pkg: pkg, Lit: lit, Body: lit.Body, Parent: parent}
				ix.Lits = append(ix.Lits, fi)
				ix.byLit[lit] = fi
			}
		}
		return true
	})
}

// resolveCalls finds the call sites in body, excluding nested literals,
// and resolves static callees through the type info.
func resolveCalls(ix *Index, pkg *Package, body *ast.BlockStmt) []*CallSite {
	var calls []*CallSite
	var walk func(n ast.Node, spawned bool)
	walk = func(n ast.Node, spawned bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false // owns its own call list
			case *ast.GoStmt:
				walk(c.Call, true)
				return false
			case *ast.CallExpr:
				cs := &CallSite{Call: c, Spawned: spawned}
				cs.Callee = staticCallee(ix, pkg, c)
				calls = append(calls, cs)
				// Arguments and the callee expression may contain
				// further calls; only the outermost call carries the
				// go marker.
				for _, arg := range c.Args {
					walk(arg, false)
				}
				walk(c.Fun, false)
				return false
			}
			return true
		})
	}
	walk(body, false)
	return calls
}

// staticCallee resolves a call expression to a module function: direct
// calls (pkg-level functions, methods on concrete receivers) resolve;
// interface dispatch and function values do not.
func staticCallee(ix *Index, pkg *Package, call *ast.CallExpr) *FuncInfo {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.FuncLit:
		return ix.LitOf(fun)
	default:
		return nil
	}
	if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
		return ix.byObj[fn]
	}
	return nil
}
