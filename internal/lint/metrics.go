package lint

// metrics enforces the registry-hygiene rules that keep the admin
// plane's exposition bounded and greppable:
//
//  1. Every family name passed to Registry.Counter/Gauge/Histogram/Help
//     must be *bounded*: derived only from compile-time constants (a
//     literal, a const, a range over a constant-keyed map literal, a
//     helper that returns only constants). Each possible value must
//     match ^cwc_[a-z0-9_]+$.
//  2. Label keys must be bounded and lowercase identifiers; label
//     values must be bounded too — no strconv.Itoa(id), no
//     fmt.Sprintf, no string(wireField). Unbounded label values are how
//     a registry becomes a memory leak with a per-phone, per-job, or
//     per-attacker cardinality.
//  3. A family must keep one kind: registering cwc_x as a Counter in
//     one file and a Gauge in another is reported here instead of as a
//     runtime panic on the first scrape.
//  4. Every metric name mentioned in the module's _test.go files and
//     in docs/observability.md must be a family the module actually
//     registers, so tests and docs cannot drift from the code.
//
// Boundedness is interprocedural: a parameter is bounded iff every
// call site passes a bounded argument, and a helper's result is
// bounded iff every return statement yields bounded strings — both
// iterated to fixpoint over the call graph (the summary starts
// optimistic and only decays, so it terminates).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// MetricsAnalyzer reports unbounded metric names/labels, kind
// conflicts, and metric names in tests/docs that do not exist.
var MetricsAnalyzer = &Analyzer{
	Name: "metrics",
	Run:  runMetrics,
}

var labelKeyRe = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// registryMethods are the Registry entry points and whether their first
// argument is a family name.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Help": true}

type metricsCheck struct {
	prog   *Program
	ix     *Index
	bound  *boundedness
	diags  []Diagnostic
	kinds  map[string]string         // family value -> first kind seen
	kindAt map[string]token.Position // family value -> first registration site
	fams   map[string]bool           // all registered family values
}

// metricDoc is the module-relative doc file whose metric names must be
// registered families; famRe is the shape of a family name and
// metricTokenRe finds candidates for one in raw test/doc text.
const metricDoc = "docs/observability.md"

var (
	famRe         = regexp.MustCompile(`^cwc_[a-z0-9_]+$`)
	metricTokenRe = regexp.MustCompile(`cwc_[a-z0-9_]*[a-z0-9]`)
)

func runMetrics(prog *Program) []Diagnostic {
	mc := &metricsCheck{
		prog:   prog,
		ix:     prog.Index(),
		kinds:  map[string]string{},
		kindAt: map[string]token.Position{},
		fams:   map[string]bool{},
	}
	_, mc.diags = prog.scope("metrics", obsPkg)
	mc.bound = newBoundedness(prog, mc.ix)
	for _, f := range mc.ix.All() {
		mc.checkFunc(f)
	}
	mc.checkEvidence()
	return mc.diags
}

// registryCall reports whether call is Registry.Counter/Gauge/... on
// the obs registry type, returning the method name.
func (mc *metricsCheck) registryCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPkg {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	return sel.Sel.Name, true
}

func (mc *metricsCheck) checkFunc(f *FuncInfo) {
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			return lit == f.Lit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := mc.registryCall(f.Pkg, call)
		if !ok || len(call.Args) == 0 {
			return true
		}
		mc.checkFamily(f, call, method)
		if method != "Help" {
			mc.checkLabels(f, call)
		}
		return true
	})
}

// checkFamily validates the family-name argument and records the
// family's kind and existence.
func (mc *metricsCheck) checkFamily(f *FuncInfo, call *ast.CallExpr, method string) {
	arg := call.Args[0]
	vals, ok := mc.bound.values(f, arg)
	if !ok {
		mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
			"metric family registered from a dynamically constructed name (%s); families must come from compile-time constants", exprString(arg)))
		return
	}
	for _, v := range vals {
		if !famRe.MatchString(v) {
			mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
				"metric family %q does not match %s", v, famRe))
			continue
		}
		mc.fams[v] = true
		if method == "Help" {
			continue
		}
		if prev, seen := mc.kinds[v]; seen && prev != method {
			mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
				"metric family %q registered as %s here but as %s at %s; a family keeps one kind", v, method, prev, mc.kindAt[v]))
		} else if !seen {
			mc.kinds[v] = method
			mc.kindAt[v] = mc.prog.Fset.Position(arg.Pos())
		}
	}
}

// checkLabels validates the variadic key/value pairs.
func (mc *metricsCheck) checkLabels(f *FuncInfo, call *ast.CallExpr) {
	labels := call.Args[1:]
	for i, arg := range labels {
		vals, ok := mc.bound.values(f, arg)
		if i%2 == 0 { // key
			if !ok {
				mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
					"label key must be a compile-time constant, got %s", exprString(arg)))
				continue
			}
			for _, v := range vals {
				if !labelKeyRe.MatchString(v) {
					mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
						"label key %q is not a lowercase identifier", v))
				}
			}
			continue
		}
		if !ok { // value
			mc.diags = append(mc.diags, mc.prog.diag("metrics", arg,
				"label value %s is unbounded; dynamic label cardinality grows the registry without limit", exprString(arg)))
		}
	}
}

// checkEvidence scans the module's _test.go files and the metric doc
// file for metric-name tokens and requires each to be a registered
// family. A line containing "lint:ignore metrics" (or the line above)
// suppresses, mirroring the in-source directive for files the loader
// does not parse.
func (mc *metricsCheck) checkEvidence() {
	var paths []string
	for _, pkg := range mc.prog.Pkgs {
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), "_test.go") {
				paths = append(paths, filepath.Join(pkg.Dir, e.Name()))
			}
		}
	}
	sort.Strings(paths)
	doc := filepath.Join(mc.prog.Root, metricDoc)
	for _, path := range append(paths, doc) {
		b, err := os.ReadFile(path)
		if err != nil {
			if path == doc {
				mc.diags = append(mc.diags, mc.prog.unresolved("metrics", "doc file "+metricDoc))
			}
			continue
		}
		lines := strings.Split(string(b), "\n")
		for i, line := range lines {
			if strings.Contains(line, "lint:ignore metrics") ||
				(i > 0 && strings.Contains(lines[i-1], "lint:ignore metrics")) {
				continue
			}
			for _, loc := range metricTokenRe.FindAllStringIndex(line, -1) {
				tok := line[loc[0]:loc[1]]
				// Require a word boundary on the left so e.g.
				// "xcwc_foo" is not treated as a metric name.
				if loc[0] > 0 {
					prev := line[loc[0]-1]
					if prev == '_' || ('a' <= prev && prev <= 'z') || ('A' <= prev && prev <= 'Z') || ('0' <= prev && prev <= '9') {
						continue
					}
				}
				if mc.fams[tok] {
					continue
				}
				// Histogram exposition derives _count/_sum/_bucket
				// series from the family name.
				if base, ok := histogramBase(tok); ok && mc.fams[base] {
					continue
				}
				mc.diags = append(mc.diags, Diagnostic{
					Analyzer: "metrics",
					Position: token.Position{Filename: path, Line: i + 1, Column: loc[0] + 1},
					Message:  fmt.Sprintf("metric %q is referenced here but never registered by the module", tok),
				})
			}
		}
	}
}

// histogramBase strips a Prometheus histogram-derived suffix.
func histogramBase(tok string) (string, bool) {
	for _, suf := range []string{"_count", "_sum", "_bucket"} {
		if base, ok := strings.CutSuffix(tok, suf); ok {
			return base, true
		}
	}
	return "", false
}

// boundedness computes, per expression, the finite set of constant
// string values it can take — or reports it unbounded.
type boundedness struct {
	prog *Program
	ix   *Index

	// paramVals is the fixpoint summary for parameters: the union of
	// every call site's argument values, or nil when unbounded.
	paramVals map[*types.Var][]string
	paramOK   map[*types.Var]bool
	// retOK/retVals summarize functions whose every return yields
	// bounded strings (single string result only).
	retVals map[*FuncInfo][]string
	retOK   map[*FuncInfo]bool
}

const boundedSetCap = 128

func newBoundedness(prog *Program, ix *Index) *boundedness {
	b := &boundedness{
		prog:      prog,
		ix:        ix,
		paramVals: map[*types.Var][]string{},
		paramOK:   map[*types.Var]bool{},
		retVals:   map[*FuncInfo][]string{},
		retOK:     map[*FuncInfo]bool{},
	}
	b.solve()
	return b
}

// params returns the named parameters of a declared function.
func declParams(f *FuncInfo) []*types.Var {
	if f.Obj == nil {
		return nil
	}
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// solve iterates the parameter and return summaries to fixpoint.
// Summaries start optimistic (bounded, empty value set) and only decay
// toward unbounded or larger sets, so the iteration terminates.
func (b *boundedness) solve() {
	all := b.ix.All()
	for _, f := range all {
		for _, p := range declParams(f) {
			b.paramOK[p] = true
		}
		b.retOK[f] = true
	}
	b.ix.Fixpoint(func(f *FuncInfo) bool {
		changed := false
		// Return summary: every string result of every return bounded.
		vals, ok := b.returnValues(f)
		if ok != b.retOK[f] || len(vals) != len(b.retVals[f]) {
			b.retOK[f], b.retVals[f] = ok, vals
			changed = true
		}
		// Parameter summaries from this function's outgoing calls.
		for _, cs := range f.Calls {
			if cs.Callee == nil || cs.Callee.Obj == nil {
				continue
			}
			params := declParams(cs.Callee)
			sig := cs.Callee.Obj.Type().(*types.Signature)
			for ai, arg := range cs.Call.Args {
				pi := ai
				if sig.Variadic() && pi >= len(params)-1 {
					pi = len(params) - 1
				}
				if pi < 0 || pi >= len(params) {
					continue
				}
				p := params[pi]
				if !b.paramOK[p] {
					continue
				}
				avals, aok := b.values(f, arg)
				if !aok {
					b.paramOK[p] = false
					b.paramVals[p] = nil
					changed = true
					continue
				}
				if merged, grew := mergeVals(b.paramVals[p], avals); grew {
					if len(merged) > boundedSetCap {
						b.paramOK[p] = false
						b.paramVals[p] = nil
					} else {
						b.paramVals[p] = merged
					}
					changed = true
				}
			}
		}
		return changed
	})
	// A parameter no module call site ever binds (e.g. an exported
	// function only tests call) keeps its optimistic summary; that is
	// deliberate — flagging it would punish every library entry point.
}

// returnValues computes the possible constant values of f's string
// results.
func (b *boundedness) returnValues(f *FuncInfo) ([]string, bool) {
	var vals []string
	ok := true
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				t := f.Pkg.Info.TypeOf(res)
				if t == nil || !isStringType(t) {
					continue
				}
				rv, rok := b.values(f, res)
				if !rok {
					ok = false
					return false
				}
				vals, _ = mergeVals(vals, rv)
			}
		}
		return true
	})
	if len(vals) > boundedSetCap {
		return nil, false
	}
	return vals, ok
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// mergeVals unions two sorted-insensitive value sets, reporting growth.
func mergeVals(dst, src []string) ([]string, bool) {
	grew := false
	for _, v := range src {
		found := false
		for _, d := range dst {
			if d == v {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, v)
			grew = true
		}
	}
	return dst, grew
}

// values computes the possible constant string values of e inside f.
// ok=false means unbounded.
func (b *boundedness) values(f *FuncInfo, e ast.Expr) ([]string, bool) {
	return b.eval(f, e, map[types.Object]bool{})
}

func (b *boundedness) eval(f *FuncInfo, e ast.Expr, visiting map[types.Object]bool) ([]string, bool) {
	pkg := f.Pkg
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		if tv.Value.Kind() == constant.Unknown {
			return nil, false
		}
		return []string{stringConstVal(tv)}, true
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return b.eval(f, e.X, visiting)
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return nil, false
		}
		lv, lok := b.eval(f, e.X, visiting)
		rv, rok := b.eval(f, e.Y, visiting)
		if !lok || !rok {
			return nil, false
		}
		var out []string
		for _, l := range lv {
			for _, r := range rv {
				out = append(out, l+r)
			}
		}
		if len(out) > boundedSetCap {
			return nil, false
		}
		return out, true
	case *ast.CallExpr:
		return b.evalCall(f, e, visiting)
	case *ast.Ident:
		return b.evalIdent(f, e, visiting)
	}
	return nil, false
}

// stringConstVal renders a constant TypeAndValue as its string value.
func stringConstVal(tv types.TypeAndValue) string {
	if tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return tv.Value.ExactString()
}

// evalCall handles conversions (string(x) is as bounded as x) and
// calls to module helpers whose returns are all constants.
func (b *boundedness) evalCall(f *FuncInfo, call *ast.CallExpr, visiting map[types.Object]bool) ([]string, bool) {
	// Type conversion: T(x) for a string type tracks x.
	if tv, ok := f.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringType(tv.Type) {
			return b.eval(f, call.Args[0], visiting)
		}
		return nil, false
	}
	callee := staticCallee(b.ix, f.Pkg, call)
	if callee == nil {
		// strconv.Itoa, fmt.Sprintf, and any other out-of-module call.
		return nil, false
	}
	if b.retOK[callee] {
		return b.retVals[callee], true
	}
	return nil, false
}

// evalIdent resolves constants, parameters (call-site summary), and
// locals (all binding sites bounded, including range over constant
// collections).
func (b *boundedness) evalIdent(f *FuncInfo, id *ast.Ident, visiting map[types.Object]bool) ([]string, bool) {
	obj := f.Pkg.Info.Uses[id]
	if obj == nil {
		obj = f.Pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil, false
	}
	if visiting[v] {
		return nil, true // cycle: contributes nothing new
	}
	visiting[v] = true
	defer delete(visiting, v)

	if vals, isParam := b.paramVals[v]; isParam || b.paramOK[v] {
		if b.paramOK[v] {
			return vals, true
		}
		return nil, false
	}
	// Local variable: every binding must be bounded.
	var vals []string
	bounded := true
	found := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if !bounded {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == f.Lit
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || f.Pkg.Info.Defs[lid] != v && f.Pkg.Info.Uses[lid] != v {
					continue
				}
				found = true
				if i >= len(n.Rhs) {
					bounded = false // multi-value assignment from a call
					return false
				}
				rv, rok := b.eval(f, n.Rhs[i], visiting)
				if !rok {
					bounded = false
					return false
				}
				vals, _ = mergeVals(vals, rv)
			}
		case *ast.RangeStmt:
			kid, kok := n.Key.(*ast.Ident)
			vid, vok := n.Value.(*ast.Ident)
			isKey := kok && (f.Pkg.Info.Defs[kid] == v || f.Pkg.Info.Uses[kid] == v)
			isVal := vok && (f.Pkg.Info.Defs[vid] == v || f.Pkg.Info.Uses[vid] == v)
			if !isKey && !isVal {
				return true
			}
			found = true
			rv, rok := b.rangeValues(f, n.X, isKey, visiting)
			if !rok {
				bounded = false
				return false
			}
			vals, _ = mergeVals(vals, rv)
		}
		return true
	})
	if !bounded || !found || len(vals) > boundedSetCap {
		return nil, bounded && found
	}
	return vals, true
}

// rangeValues extracts the constant keys (or values) of the ranged
// collection when it is a map/slice composite literal of constants —
// directly or through a single local indirection.
func (b *boundedness) rangeValues(f *FuncInfo, x ast.Expr, key bool, visiting map[types.Object]bool) ([]string, bool) {
	switch x := x.(type) {
	case *ast.CompositeLit:
		return compositeStrings(f.Pkg, x, key)
	case *ast.Ident:
		// Ranged over a local: find its composite-literal binding.
		obj := f.Pkg.Info.Uses[x]
		if obj == nil {
			return nil, false
		}
		var out []string
		ok := false
		ast.Inspect(f.Body, func(n ast.Node) bool {
			as, isAssign := n.(*ast.AssignStmt)
			if !isAssign {
				return true
			}
			for i, lhs := range as.Lhs {
				lid, isID := lhs.(*ast.Ident)
				if !isID || i >= len(as.Rhs) {
					continue
				}
				if f.Pkg.Info.Defs[lid] != obj && f.Pkg.Info.Uses[lid] != obj {
					continue
				}
				if cl, isCL := as.Rhs[i].(*ast.CompositeLit); isCL {
					out, ok = compositeStrings(f.Pkg, cl, key)
				}
			}
			return true
		})
		return out, ok
	}
	return nil, false
}

// compositeStrings lists the constant string keys (or element values)
// of a composite literal.
func compositeStrings(pkg *Package, cl *ast.CompositeLit, key bool) ([]string, bool) {
	var out []string
	for _, el := range cl.Elts {
		var target ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key {
				target = kv.Key
			} else {
				target = kv.Value
			}
		} else {
			if key {
				return nil, false // keyless elements have int indices
			}
			target = el
		}
		tv, ok := pkg.Info.Types[target]
		if !ok || tv.Value == nil {
			return nil, false
		}
		out = append(out, stringConstVal(tv))
	}
	if len(out) > boundedSetCap {
		return nil, false
	}
	return out, true
}
