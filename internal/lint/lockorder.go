package lint

// lockorder builds the module-wide mutex-acquisition graph and reports
// two classes of deadlock risk the paper's master cannot afford (a hung
// master stalls every phone in the fleet):
//
//  1. Lock-order cycles: if one code path acquires A then B and another
//     acquires B then A, two goroutines can deadlock. Mutexes are
//     identified by their declaration site ("pkg.Type.field" for struct
//     mutexes, "pkg.var" for package-level ones), so ordering is checked
//     across instances of the same type and across packages.
//  2. Blocking under a lock: calling a configured blocking operation
//     (protocol.Conn.Send/Recv, time.Sleep) with any mutex held turns a
//     slow phone into a fleet-wide stall.
//
// Both checks are interprocedural: a per-function summary records which
// mutexes and blocking calls a function may reach (directly or through
// callees, excluding spawned goroutines — a `go` statement starts a
// concurrent timeline, not a nested acquisition), iterated to fixpoint
// over the call graph.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrderAnalyzer reports lock-order cycles and blocking calls made
// while a mutex is held.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Run:  runLockOrder,
}

type lockOrder struct {
	prog     *Program
	acquires map[*FuncInfo]map[string]bool // summary: mutexes f may acquire
	blocks   map[*FuncInfo]map[string]bool // summary: blocking ops f may reach
	edges    map[[2]string]token.Position  // earliest position per ordering edge
	diags    []Diagnostic
	seen     map[string]bool // finding dedupe across goroutine roots
}

// lockOrderPkgs are the packages whose mutex acquisition order is
// checked; blockingUnderLock maps the calls that must never be made
// with a mutex held, qualified as qualifiedFunc renders them.
var (
	lockOrderPkgs     = []string{serverPkg, workerPkg, replicaPkg, obsPkg, walPkg}
	blockingUnderLock = map[string]bool{
		protocolPkg + ".Conn.Send": true,
		protocolPkg + ".Conn.Recv": true,
		"time.Sleep":               true,
	}
)

func runLockOrder(prog *Program) []Diagnostic {
	lo := &lockOrder{
		prog:     prog,
		acquires: map[*FuncInfo]map[string]bool{},
		blocks:   map[*FuncInfo]map[string]bool{},
		edges:    map[[2]string]token.Position{},
		seen:     map[string]bool{},
	}
	_, lo.diags = prog.scope("lockorder", lockOrderPkgs...)
	ix := prog.Index()
	declared := map[string]bool{}
	for _, f := range ix.Funcs {
		declared[qualifiedFunc(f.Obj)] = true
	}
	for _, name := range sortedKeys(blockingUnderLock) {
		if strings.HasPrefix(name, protocolPkg) && !declared[name] {
			lo.diags = append(lo.diags, prog.unresolved("lockorder", "method "+name))
		}
	}

	// Summaries to fixpoint: what each function may acquire or block on,
	// through arbitrarily deep (non-spawned) call chains.
	ix.Fixpoint(func(f *FuncInfo) bool {
		acq := lo.directAcquires(f)
		blk := lo.directBlocks(f)
		for _, cs := range f.Calls {
			if cs.Spawned || cs.Callee == nil {
				continue
			}
			for m := range lo.acquires[cs.Callee] {
				acq[m] = true
			}
			for b := range lo.blocks[cs.Callee] {
				blk[b] = true
			}
		}
		changed := len(acq) != len(lo.acquires[f]) || len(blk) != len(lo.blocks[f])
		lo.acquires[f] = acq
		lo.blocks[f] = blk
		return changed
	})

	// Per-function flow: track the held set through the CFG, recording
	// ordering edges and blocking-under-lock findings.
	for _, f := range ix.All() {
		if slices.Contains(lockOrderPkgs, f.Pkg.Path) {
			lo.flowFunc(f)
		}
	}

	lo.reportCycles()
	return lo.diags
}

// mutexNode renders a stable identity for the mutex behind a
// Lock/Unlock receiver expression: "pkg.Type.field" for struct fields,
// "pkg.var" for package-level mutexes, a function-local key otherwise.
func (lo *lockOrder) mutexNode(pkg *Package, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if recv := namedOrPtr(pkg.Info.TypeOf(x.X)); recv != nil && recv.Obj() != nil {
			id := recv.Obj().Name() + "." + x.Sel.Name
			if p := recv.Obj().Pkg(); p != nil {
				id = shortPkg(p.Path()) + "." + id
			}
			return id
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			if v.Parent() == pkg.Types.Scope() {
				return shortPkg(pkg.Path) + "." + v.Name()
			}
			return "local:" + v.Name()
		}
	}
	return "local:" + exprString(x)
}

// shortPkg trims the module prefix for readable node names.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// lockOp classifies a call as a mutex acquire/release, returning the
// node identity and whether it acquires.
func (lo *lockOrder) lockOp(pkg *Package, call *ast.CallExpr) (node string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	if !isMutexType(pkg.Info.TypeOf(sel.X)) {
		return "", false, false
	}
	return lo.mutexNode(pkg, sel.X), acquire, true
}

// qualifiedFunc renders a types.Func as "pkgpath.Name" or
// "pkgpath.Recv.Name" to match blockingUnderLock entries.
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

// directAcquires collects the mutex nodes f acquires in its own body
// (excluding nested literals and spawned goroutines).
func (lo *lockOrder) directAcquires(f *FuncInfo) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit // descend only into our own body
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if node, acquire, ok := lo.lockOp(f.Pkg, n); ok && acquire {
				out[node] = true
			}
		}
		return true
	})
	return out
}

// directBlocks collects banned blocking calls made directly in f.
func (lo *lockOrder) directBlocks(f *FuncInfo) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if name := qualifiedFunc(calleeFunc(f.Pkg, n)); blockingUnderLock[name] {
				out[name] = true
			}
		}
		return true
	})
	return out
}

// flowFunc runs the held-set dataflow over one function, recording
// ordering edges and blocking findings at their source positions.
func (lo *lockOrder) flowFunc(f *FuncInfo) {
	cfg := f.CFG()
	transfer := func(n ast.Node, facts Facts) { lo.node(f, n, facts, false) }
	sol := Forward(cfg, Facts{}, transfer)
	Visit(cfg, sol, transfer, func(n ast.Node, facts Facts) {
		lo.node(f, n, facts.Clone(), true)
	})
}

// node applies one CFG node's lock effects; with record set it also
// emits edges and findings.
func (lo *lockOrder) node(f *FuncInfo, n ast.Node, held Facts, record bool) {
	if _, ok := n.(*ast.DeferStmt); ok {
		// Deferred unlocks run at return (the lock stays held for the
		// rest of the body); deferred calls into other code run with
		// whatever is held at return time, which we approximate as "not
		// under this analysis" — matching the v1 locks semantics.
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if node, acquire, ok := lo.lockOp(f.Pkg, c); ok {
				if acquire {
					if record {
						for _, h := range held.Keys() {
							lo.addEdge(h, node, lo.prog.Fset.Position(c.Pos()))
						}
					}
					held[node] = true
				} else {
					delete(held, node)
				}
				return false
			}
			if record && len(held.Keys()) > 0 {
				lo.checkCall(f, c, held)
			}
		}
		return true
	})
}

// checkCall reports blocking calls (direct or via callee summaries) and
// lifts callee acquisitions into ordering edges under the held set.
func (lo *lockOrder) checkCall(f *FuncInfo, call *ast.CallExpr, held Facts) {
	pos := lo.prog.Fset.Position(call.Pos())
	heldList := strings.Join(held.Keys(), ", ")
	if name := qualifiedFunc(calleeFunc(f.Pkg, call)); blockingUnderLock[name] {
		lo.emit(pos, fmt.Sprintf("calls %s while holding %s; blocking under a mutex stalls every goroutine waiting on it", name, heldList))
		return
	}
	callee := staticCallee(lo.prog.Index(), f.Pkg, call)
	if callee == nil {
		return
	}
	for _, b := range sortedKeys(lo.blocks[callee]) {
		lo.emit(pos, fmt.Sprintf("calls %s, which may block in %s, while holding %s", callee.Name(), b, heldList))
	}
	for _, a := range sortedKeys(lo.acquires[callee]) {
		for _, h := range held.Keys() {
			lo.addEdge(h, a, pos)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (lo *lockOrder) emit(pos token.Position, msg string) {
	key := pos.String() + "|" + msg
	if lo.seen[key] {
		return
	}
	lo.seen[key] = true
	lo.diags = append(lo.diags, Diagnostic{Analyzer: "lockorder", Position: pos, Message: msg})
}

// addEdge records "to acquired while from held", keeping the earliest
// position for deterministic reporting. Self-edges are dropped: two
// instances of the same type locking each other is an ordering problem
// only with an instance-level alias analysis this tool does not have.
func (lo *lockOrder) addEdge(from, to string, pos token.Position) {
	if from == to || strings.HasPrefix(from, "local:") || strings.HasPrefix(to, "local:") {
		return
	}
	key := [2]string{from, to}
	if old, ok := lo.edges[key]; !ok || posLess(pos, old) {
		lo.edges[key] = pos
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
}

// reportCycles finds strongly connected components in the acquisition
// graph and reports every edge inside one.
func (lo *lockOrder) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for e := range lo.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		nodes[e[0]], nodes[e[1]] = true, true
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	comp := sccs(nodes, adj)
	for e, pos := range lo.edges {
		if comp[e[0]] != comp[e[1]] {
			continue
		}
		members := make([]string, 0, 4)
		for n, c := range comp {
			if c == comp[e[0]] {
				members = append(members, n)
			}
		}
		sort.Strings(members)
		lo.emit(pos, fmt.Sprintf("acquires %s while holding %s; part of a lock-order cycle among %s",
			e[1], e[0], strings.Join(members, ", ")))
	}
}

// sccs assigns each node a strongly-connected-component id (iterative
// Tarjan).
func sccs(nodes map[string]bool, adj map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	ordered := make([]string, 0, len(nodes))
	for n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comp
}
