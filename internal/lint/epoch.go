package lint

// epoch machine-checks the fencing discipline the failover design
// (hot-standby master with epoch fencing) relies on: a frame that
// participates in fencing is worthless unless it carries the regime
// counter from the moment it is minted, and a WAL record that persists
// the regime must thread it too. Three rules:
//
//  1. A protocol.Message composite literal whose Type field is one of
//     the fenced constants must also set Epoch in the same literal.
//  2. An assignment `x.Type = <fenced const>` must be matched by an
//     `x.Epoch = ...` assignment to the same base somewhere in the same
//     function (literal-free construction paths).
//  3. A keyed composite literal of a fenced WAL record type must set
//     its Epoch field (positional literals necessarily set every
//     field and pass).

import (
	"go/ast"
	"go/types"
	"slices"
)

// EpochAnalyzer reports fenced frames and WAL records minted without an
// epoch.
var EpochAnalyzer = &Analyzer{
	Name: "epoch",
	Run:  runEpoch,
}

// fencedFrameTypes are the protocol constants whose Message values must
// set Epoch at mint time; fencedWALRec is the server's record struct
// whose keyed literals must thread it.
var fencedFrameTypes = []string{"TypeWelcome", "TypeResult", "TypeFailure", "TypeCheckpoint"}

const fencedWALRec = "walEpochRec"

func runEpoch(prog *Program) []Diagnostic {
	pkgs, diags := prog.scope("epoch", protocolPkg, serverPkg)
	if len(diags) > 0 {
		return diags
	}
	diags = append(prog.declared("epoch", pkgs[0], fencedFrameTypes...), prog.declared("epoch", pkgs[1], fencedWALRec)...)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			diags = append(diags, epochLiterals(prog, pkg, f)...)
		}
		diags = append(diags, epochAssignments(prog, pkg)...)
	}
	return diags
}

// fencedConstName returns the constant's name when e resolves to one of
// the fenced frame-type constants declared in the protocol package.
func fencedConstName(pkg *Package, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := pkg.Info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != protocolPkg || !slices.Contains(fencedFrameTypes, c.Name()) {
		return ""
	}
	return c.Name()
}

// epochLiterals checks composite literals (rules 1 and 3).
func epochLiterals(prog *Program, pkg *Package, f *ast.File) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		named := namedOrPtr(pkg.Info.TypeOf(lit))
		if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
			return true
		}
		obj := named.Obj()
		keyed := len(lit.Elts) > 0
		keys := map[string]ast.Expr{}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				keyed = false
				break
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				keys[id.Name] = kv.Value
			}
		}

		// Rule 1: fenced Message literal must set Epoch.
		if obj.Pkg().Path() == protocolPkg && obj.Name() == messageTypeName && keyed {
			if name := fencedConstName(pkg, keys["Type"]); name != "" {
				if _, ok := keys["Epoch"]; !ok {
					diags = append(diags, prog.diag("epoch", lit,
						"%s frame minted without Epoch; fenced frames must carry the regime counter from creation", name))
				}
			}
		}

		// Rule 3: fenced WAL record literal must set Epoch.
		if obj.Pkg().Path() == serverPkg && obj.Name() == fencedWALRec && keyed {
			if _, ok := keys["Epoch"]; !ok {
				diags = append(diags, prog.diag("epoch", lit,
					"%s literal does not thread Epoch; the record is the regime's durable evidence", obj.Name()))
			}
		}
		return true
	})
	return diags
}

// epochAssignments checks rule 2: `x.Type = <fenced>` without a
// matching `x.Epoch = ...` in the same function body.
func epochAssignments(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	check := func(body *ast.BlockStmt) {
		type typeSet struct {
			node ast.Node
			base string
			name string
		}
		var sets []typeSet
		epochSet := map[string]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || i >= len(as.Rhs) {
					continue
				}
				base := exprString(sel.X)
				if !isNamedType(pkg.Info.TypeOf(sel.X), protocolPkg, messageTypeName) {
					continue
				}
				switch sel.Sel.Name {
				case "Type":
					if name := fencedConstName(pkg, as.Rhs[i]); name != "" {
						sets = append(sets, typeSet{node: as, base: base, name: name})
					}
				case "Epoch":
					epochSet[base] = true
				}
			}
			return true
		})
		for _, s := range sets {
			if !epochSet[s.base] {
				diags = append(diags, prog.diag("epoch", s.node,
					"%s.Type set to fenced %s but %s.Epoch is never assigned in this function", s.base, s.name, s.base))
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				check(fd.Body)
			}
		}
	}
	return diags
}
