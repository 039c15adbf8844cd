package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LocksAnalyzer enforces the "guarded by" annotation convention: a
// struct field whose doc or trailing comment says "guarded by <mu>"
// (where <mu> is a sibling sync.Mutex or sync.RWMutex field) may only be
// accessed while that mutex is held.
//
// v2 runs on the shared substrate: the per-function CFG and the forward
// dataflow engine, with held-lock facts joined by union at merge points
// (optimistic — a fact survives a merge if it held on any falling-
// through path, because false positives hurt more than false negatives
// here). The conventions carry over from v1:
//
//   - base.mu.Lock() / RLock() marks base's mutex held from that point
//     on; base.mu.Unlock() / RUnlock() releases it; a deferred unlock
//     keeps it held to the end of the function.
//   - A branch that terminates (return, panic, os.Exit) contributes
//     nothing to the merge, so "if bad { mu.Unlock(); return }" stays
//     clean.
//   - Functions named *Locked, or documented "caller holds <mu>" /
//     "callers hold <mu>", are assumed to run with the receiver's
//     mutexes held.
//   - A local built from a composite literal in the same function is a
//     fresh, unshared object; accesses through it are exempt.
//   - go-routine literals start with no locks held (they run later);
//     other function literals inherit the lock state at their
//     definition point.
//
// Everything else touching a guarded field is a diagnostic.
var LocksAnalyzer = &Analyzer{
	Name: "locks",
	Run:  runLocks,
}

// guardedRe extracts the mutex name from a field comment.
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// callerHoldsRe recognizes assumed-locked function docs.
var callerHoldsRe = regexp.MustCompile(`(?i)callers? (?:must )?holds? ([A-Za-z_][A-Za-z0-9_.]*)`)

// guardInfo is one annotated field.
type guardInfo struct {
	mu string // sibling mutex field name
}

func runLocks(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		guarded, bad := collectGuarded(prog, pkg)
		diags = append(diags, bad...)
		if len(guarded) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lf := &lockFlow{
					prog: prog, pkg: pkg, guarded: guarded,
					fresh: freshLocals(pkg, fd.Body),
				}
				init := Facts{}
				if assumedLocked(fd) {
					markReceiverMutexesHeld(pkg, fd, init)
				}
				lf.checkBody(BuildCFG(fd.Body), init)
				diags = append(diags, lf.diags...)
			}
		}
	}
	return diags
}

// collectGuarded finds annotated fields in a package, validating that
// the named mutex is a sibling field of a mutex type.
func collectGuarded(prog *Program, pkg *Package) (map[*types.Var]guardInfo, []Diagnostic) {
	guarded := map[*types.Var]guardInfo{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			mutexes := map[string]bool{}
			for _, fld := range st.Fields.List {
				if t, ok := pkg.Info.Types[fld.Type]; ok && isMutexType(t.Type) {
					for _, name := range fld.Names {
						mutexes[name.Name] = true
					}
				}
			}
			for _, fld := range st.Fields.List {
				text := fieldComment(fld)
				m := guardedRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				mu := m[1]
				if !mutexes[mu] {
					diags = append(diags, prog.diag("locks", fld,
						`"guarded by %s" names no sibling sync.Mutex/RWMutex field`, mu))
					continue
				}
				names := fld.Names
				if len(names) == 0 {
					// An embedded field is defined by its type's identifier;
					// annotating it guards every field promoted through it.
					t := fld.Type
					if star, ok := t.(*ast.StarExpr); ok {
						t = star.X
					}
					if id, ok := t.(*ast.Ident); ok {
						names = []*ast.Ident{id}
					}
				}
				for _, name := range names {
					if obj, ok := pkg.Info.Defs[name].(*types.Var); ok {
						guarded[obj] = guardInfo{mu: mu}
					}
				}
			}
			return true
		})
	}
	return guarded, diags
}

func fieldComment(fld *ast.Field) string {
	var b strings.Builder
	if fld.Doc != nil {
		b.WriteString(fld.Doc.Text())
	}
	if fld.Comment != nil {
		b.WriteString(" ")
		b.WriteString(fld.Comment.Text())
	}
	return b.String()
}

func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// assumedLocked reports whether a function declares itself as running
// under the caller's lock.
func assumedLocked(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	return fd.Doc != nil && callerHoldsRe.MatchString(fd.Doc.Text())
}

// markReceiverMutexesHeld marks every mutex field of the receiver type
// as held ("recv.mu"), plus any explicit "caller holds x.y" names.
func markReceiverMutexesHeld(pkg *Package, fd *ast.FuncDecl, held Facts) {
	if fd.Doc != nil {
		for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
			held[strings.TrimSuffix(m[1], ".")] = true
		}
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recv := fd.Recv.List[0].Names[0].Name
	t, ok := pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return
	}
	n := namedOrPtr(t.Type)
	if n == nil {
		return
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			held[recv+"."+st.Field(i).Name()] = true
		}
	}
}

// freshLocals finds local variables assigned from composite literals in
// this function: freshly built, unshared objects whose fields may be
// initialized without the lock.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			rhs := as.Rhs[i]
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// lockFlow checks guarded-field accesses in one function by running the
// held-lock dataflow over its CFG.
type lockFlow struct {
	prog    *Program
	pkg     *Package
	guarded map[*types.Var]guardInfo
	fresh   map[types.Object]bool
	diags   []Diagnostic
}

// checkBody solves the held-lock dataflow over one CFG and replays the
// solution, emitting diagnostics. Function literals met along the way
// are analyzed recursively: go-literals with nothing held, the rest
// with the facts at their definition point.
func (lf *lockFlow) checkBody(cfg *CFG, init Facts) {
	transfer := func(n ast.Node, facts Facts) { lf.node(n, facts, false) }
	in := Forward(cfg, init, transfer)
	Visit(cfg, in, transfer, func(n ast.Node, facts Facts) {
		lf.node(n, facts.Clone(), true)
	})
}

// node applies one CFG node's lock effects to facts and, in check
// mode, reports guarded accesses made without the right mutex held.
func (lf *lockFlow) node(n ast.Node, facts Facts, check bool) {
	switch s := n.(type) {
	case nil:
	case *ast.ExprStmt:
		lf.expr(s.X, facts, check, false)
	case *ast.DeferStmt:
		if lf.lockEffect(s.Call, facts, true) {
			return
		}
		lf.expr(s.Call, facts, check, false)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			if check {
				lf.checkBody(BuildCFG(lit.Body), Facts{})
			}
			for _, arg := range s.Call.Args {
				lf.expr(arg, facts, check, false)
			}
			return
		}
		lf.expr(s.Call, facts, check, true)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lf.expr(e, facts, check, false)
		}
		for _, e := range s.Lhs {
			lf.expr(e, facts, check, false)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lf.expr(e, facts, check, false)
		}
	case *ast.SendStmt:
		lf.expr(s.Chan, facts, check, false)
		lf.expr(s.Value, facts, check, false)
	case *ast.IncDecStmt:
		lf.expr(s.X, facts, check, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lf.expr(v, facts, check, false)
					}
				}
			}
		}
	case ast.Expr:
		lf.expr(s, facts, check, false)
	case ast.Stmt:
		// Conservative default: scan any expressions reachable below.
		ast.Inspect(s, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok {
				lf.expr(e, facts, check, false)
				return false
			}
			return true
		})
	}
}

// expr walks one expression pre-order: lock-effect calls update facts,
// guarded selectors are checked, and nested function literals are
// analyzed with the facts at their definition (spawned: with nothing
// held, since the goroutine runs later).
func (lf *lockFlow) expr(e ast.Expr, facts Facts, check, spawned bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if check {
				init := facts.Clone()
				if spawned {
					init = Facts{}
				}
				lf.checkBody(BuildCFG(n.Body), init)
			}
			return false
		case *ast.CallExpr:
			if lf.lockEffect(n, facts, false) {
				return false
			}
		case *ast.SelectorExpr:
			if check {
				lf.checkSelector(n, facts)
			}
		}
		return true
	})
}

// lockEffect recognizes base.mu.Lock()/Unlock() calls (and RLock /
// RUnlock) and updates the held set. Returns true when the expression
// was a lock-state call. A deferred Unlock keeps the mutex held to
// function end, so it is a no-op here.
func (lf *lockFlow) lockEffect(e ast.Expr, held Facts, deferred bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	method := sel.Sel.Name
	if method != "Lock" && method != "Unlock" && method != "RLock" && method != "RUnlock" {
		return false
	}
	if t, ok := lf.pkg.Info.Types[sel.X]; !ok || !isMutexType(t.Type) {
		return false
	}
	key := exprString(sel.X)
	switch method {
	case "Lock", "RLock":
		held[key] = true
	case "Unlock", "RUnlock":
		if !deferred {
			held[key] = false
		}
	}
	return true
}

func (lf *lockFlow) checkSelector(sel *ast.SelectorExpr, held Facts) {
	selection, ok := lf.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fieldVar, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	info, ok := lf.guarded[fieldVar]
	// A field promoted through embedded structs is guarded by the first
	// guarded one on its path.
	t, path := selection.Recv(), selection.Index()
	for _, i := range path[:len(path)-1] {
		if ok {
			break
		}
		st, isStruct := namedOrPtr(t).Underlying().(*types.Struct)
		if !isStruct {
			return
		}
		info, ok = lf.guarded[st.Field(i)]
		t = st.Field(i).Type()
	}
	if !ok {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj := lf.pkg.Info.Uses[id]; obj != nil && lf.fresh[obj] {
			return // freshly built local, not shared yet
		}
	}
	key := exprString(sel.X) + "." + info.mu
	if held[key] {
		return
	}
	lf.diags = append(lf.diags, lf.prog.diag("locks", sel.Sel,
		"%s.%s is guarded by %s but accessed without %s held",
		exprString(sel.X), fieldVar.Name(), info.mu, key))
}
