package lint

// ctxflow checks that the daemons can actually shut down. Two rules,
// one walk over every `go` statement in the daemon packages:
//
// Every spawned goroutine must be stoppable: WaitGroup-tracked (a
// deferred wg.Done(), so Close/Run can wait for it) or done-aware (a
// select, a channel receive, or a range over a channel, so closing the
// channel or canceling the context ends it). The evidence is searched
// in the spawned function's own body; nested function literals do not
// count for their parent, and a target with no body in the module (a
// function value, an interface method, the standard library) cannot be
// vouched for. An untracked, unaware goroutine is exactly the kind that
// outlives Close and turns the keepalive-detected failure model into a
// goroutine leak.
//
// And no blocking operation reachable from such a goroutine may block
// forever once shutdown is requested:
//
//   - a select with two or more cases (or a default) always has an
//     alternative arm, so its comm ops are fine;
//   - a bare receive is fine when the channel is a cancellation or
//     deadline source (ctx.Done(), a done/stop/quit channel by name, a
//     timer/ticker .C, time.After) or is consumed by range (the
//     producer closes it);
//   - a bare send is fine on a done-like channel or one made with a
//     buffer in the same function;
//   - time.Sleep is never fine on a daemon path — it delays shutdown
//     by its full duration with no way to interrupt.
//
// Reachability is over the static call graph, crossing package
// boundaries, with spawned goroutines of reached functions included
// (a goroutine's goroutine is still a daemon).

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
)

// CtxFlowAnalyzer reports goroutines nothing can stop and blocking ops
// on daemon-goroutine paths that have no cancellation alternative.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxFlow,
}

// daemonPkgs are the packages whose `go` statements are the roots.
var daemonPkgs = []string{serverPkg, workerPkg, replicaPkg}

// doneLikeRe matches channel expressions that are cancellation sources
// by naming convention.
var doneLikeRe = regexp.MustCompile(`(?i)(done|stop|quit|close|shutdown|exit|ctx|cancel)`)

func runCtxFlow(prog *Program) []Diagnostic {
	_, diags := prog.scope("ctxflow", daemonPkgs...)
	ix := prog.Index()

	// Roots: every `go` statement in a daemon package. The target must
	// be stoppable, and seeds the reachability walk when it resolves.
	reached := map[*FuncInfo]bool{}
	var frontier []*FuncInfo
	for _, f := range ix.All() {
		if !slices.Contains(daemonPkgs, f.Pkg.Path) {
			continue
		}
		for _, cs := range f.Calls {
			if !cs.Spawned {
				continue
			}
			if cs.Callee == nil {
				diags = append(diags, prog.diag("ctxflow", cs.Call,
					"goroutine spawns a function this analyzer cannot see into: track it with a sync.WaitGroup or make it ctx/done-aware"))
				continue
			}
			if !goroutineTerminates(cs.Callee) {
				diags = append(diags, prog.diag("ctxflow", cs.Call,
					"goroutine is neither WaitGroup-tracked (defer wg.Done()) nor ctx/done-aware (select, channel receive, or range over a channel): it can outlive Close"))
			}
			if !reached[cs.Callee] {
				reached[cs.Callee] = true
				frontier = append(frontier, cs.Callee)
			}
		}
	}
	for len(frontier) > 0 {
		f := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, cs := range f.Calls {
			if cs.Callee != nil && !reached[cs.Callee] {
				reached[cs.Callee] = true
				frontier = append(frontier, cs.Callee)
			}
		}
	}

	seen := map[string]bool{}
	for _, f := range ix.All() {
		if !reached[f] {
			continue
		}
		for _, d := range checkGoroutineBody(prog, f) {
			key := d.Position.String()
			if !seen[key] {
				seen[key] = true
				diags = append(diags, d)
			}
		}
	}
	return diags
}

// goroutineTerminates looks for shutdown evidence in a spawned
// function's body: a deferred WaitGroup.Done, a select statement, a
// channel receive, or a range over a channel.
func goroutineTerminates(f *FuncInfo) bool {
	found := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			found = found || n.Op == token.ARROW
		case *ast.RangeStmt:
			found = found || isChanType(f.Pkg.Info.TypeOf(n.X))
		case *ast.DeferStmt:
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = found || isNamedType(f.Pkg.Info.TypeOf(sel.X), "sync", "WaitGroup")
			}
		}
		return !found
	})
	return found
}

// checkGoroutineBody scans one reached function for non-cancellable
// blocking ops.
func checkGoroutineBody(prog *Program, f *FuncInfo) []Diagnostic {
	var diags []Diagnostic
	exempt := map[ast.Node]bool{} // comm ops inside multi-way selects
	ranged := map[ast.Node]bool{} // receive operands consumed by range

	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.SelectStmt:
			comms := 0
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
				} else {
					comms++
				}
			}
			if comms >= 2 || hasDefault {
				for _, c := range n.Body.List {
					if cc := c.(*ast.CommClause); cc.Comm != nil {
						markComm(exempt, cc.Comm)
					}
				}
			}
		case *ast.RangeStmt:
			if isChanType(f.Pkg.Info.TypeOf(n.X)) {
				ranged[n.X] = true
			}
		}
		return true
	})

	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.CallExpr:
			if name := qualifiedFunc(calleeFunc(f.Pkg, n)); name == "time.Sleep" {
				diags = append(diags, prog.diag("ctxflow", n,
					"time.Sleep on a daemon goroutine path in %s cannot be cancelled; select on a timer and the shutdown channel instead", f.Name()))
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || exempt[n] || ranged[n.X] {
				return true
			}
			if !cancellableRecv(f.Pkg, n.X) {
				diags = append(diags, prog.diag("ctxflow", n,
					"blocking receive from %s in %s has no cancellation path; add a select arm on the shutdown channel", exprString(n.X), f.Name()))
			}
		case *ast.SendStmt:
			if exempt[n] {
				return true
			}
			if !cancellableSend(f, n.Chan) {
				diags = append(diags, prog.diag("ctxflow", n,
					"blocking send to %s in %s has no cancellation path; add a select arm on the shutdown channel or buffer the channel", exprString(n.Chan), f.Name()))
			}
		}
		return true
	})
	return diags
}

// markComm exempts the comm statement's channel op nodes.
func markComm(exempt map[ast.Node]bool, comm ast.Stmt) {
	exempt[comm] = true
	ast.Inspect(comm, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				exempt[n] = true
			}
		case *ast.SendStmt:
			exempt[n] = true
		}
		return true
	})
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// cancellableRecv reports whether a bare receive operand is a
// cancellation or deadline source.
func cancellableRecv(pkg *Package, x ast.Expr) bool {
	s := exprString(x)
	if doneLikeRe.MatchString(s) {
		return true
	}
	switch x := x.(type) {
	case *ast.CallExpr:
		// ctx.Done(), time.After(d), time.Tick(d) are all bounded or
		// cancellation sources.
		name := qualifiedFunc(calleeFunc(pkg, x))
		if name == "time.After" || name == "time.Tick" {
			return true
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	case *ast.SelectorExpr:
		// timer.C / ticker.C fire after a bounded duration.
		if x.Sel.Name == "C" {
			return true
		}
	}
	return false
}

// cancellableSend reports whether a bare send cannot block forever:
// the channel is done-like by name, or it was made with a buffer in
// the same function (a bounded handoff).
func cancellableSend(f *FuncInfo, ch ast.Expr) bool {
	s := exprString(ch)
	if doneLikeRe.MatchString(s) {
		return true
	}
	id, ok := ch.(*ast.Ident)
	if !ok {
		return false
	}
	buffered := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || lid.Name != id.Name || i >= len(as.Rhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "make" && len(call.Args) == 2 {
					buffered = true
				}
			}
		}
		return true
	})
	return buffered
}

// qualifiedFunc renders a types.Func as "pkgpath.Name" or
// "pkgpath.Recv.Name".
func qualifiedFunc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := namedOrPtr(sig.Recv().Type()); recv != nil && recv.Obj() != nil {
			return name + "." + recv.Obj().Name() + "." + fn.Name()
		}
	}
	return name + "." + fn.Name()
}

// calleeFunc resolves a call's target to its types.Func (module or
// stdlib), or nil for dynamic calls.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}
