package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// WALRecAnalyzer proves the write-ahead log stays replayable as record
// types are added. For every record-type constant (walRec* in the
// server package):
//
//  1. It must appear as an explicit case in a replay switch — the
//     reducer's "unknown record type" default may never be the only
//     mention, because a record the reducer cannot fold is a record the
//     recovery path refuses, turning a clean restart into data loss.
//  2. It must be passed to a WAL append function (walAppend /
//     walAppendErr / walAudit) somewhere — a record type nobody writes
//     is either dead protocol or a forgotten write path.
//  3. Its value must be unique — two record types sharing a wire value
//     silently corrupt each other on replay.
var WALRecAnalyzer = &Analyzer{
	Name: "walrec",
	Doc:  "every WAL record type has a replay case, an append site, and a unique value",
	Run:  runWALRec,
}

func runWALRec(cfg *Config, prog *Program) []Diagnostic {
	pkg := prog.Lookup(cfg.WALPkg)
	if pkg == nil {
		return nil
	}
	var diags []Diagnostic

	// Collect the record-type constants.
	recs := map[*types.Const]ast.Node{}
	var names []string
	byName := map[string]*types.Const{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if len(name) <= len(cfg.WALRecPrefix) || name[:len(cfg.WALRecPrefix)] != cfg.WALRecPrefix {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		recs[c] = declSite(pkg, name)
		names = append(names, name)
		byName[name] = c
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil
	}

	// 3. Unique wire values.
	byValue := map[string][]string{}
	for _, name := range names {
		v := byName[name].Val().String()
		byValue[v] = append(byValue[v], name)
	}
	for _, name := range names {
		c := byName[name]
		dupes := byValue[c.Val().String()]
		if len(dupes) > 1 && dupes[0] == name { // report once, at the first name
			diags = append(diags, prog.diag("walrec", recs[c],
				"WAL record types %v share wire value %s: replay cannot tell them apart",
				dupes, c.Val().String()))
		}
	}

	// Scan the package for replay cases and append sites.
	appendFns := map[string]bool{}
	for _, fn := range cfg.WALAppendFuncs {
		appendFns[fn] = true
	}
	inCase := map[*types.Const]bool{}
	appended := map[*types.Const]bool{}
	lookupConst := func(e ast.Expr) *types.Const {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return nil
		}
		c, _ := pkg.Info.Uses[id].(*types.Const)
		if c == nil {
			return nil
		}
		if _, tracked := recs[c]; !tracked {
			return nil
		}
		return c
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, e := range n.List {
					if c := lookupConst(e); c != nil {
						inCase[c] = true
					}
				}
			case *ast.CallExpr:
				name := ""
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				if !appendFns[name] {
					return true
				}
				for _, arg := range n.Args {
					if c := lookupConst(arg); c != nil {
						appended[c] = true
					}
				}
			}
			return true
		})
	}

	for _, name := range names {
		c := byName[name]
		if !inCase[c] {
			diags = append(diags, prog.diag("walrec", recs[c],
				"WAL record type %s has no replay-switch case: recovery would refuse logs containing it", name))
		}
		if !appended[c] {
			diags = append(diags, prog.diag("walrec", recs[c],
				"WAL record type %s is never passed to %v: dead record type or missing write path",
				name, cfg.WALAppendFuncs))
		}
	}
	return diags
}
