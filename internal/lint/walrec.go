package lint

import (
	"go/ast"
	"go/types"
)

// WALRecAnalyzer proves the write-ahead log stays replayable as record
// types are added. For every record-type constant (walRec* in the
// server package):
//
//  1. It must appear as an explicit case in a replay switch — the
//     decoder's "unknown record type" default may never be the only
//     mention, because a record replay cannot decode is a record the
//     recovery path refuses, turning a clean restart into data loss.
//  2. Some record struct must claim it: it must be named in a type
//     method (typ), which is where a struct says what it is logged as —
//     a record type no struct carries is either dead protocol or a
//     forgotten write path.
//
// Two types sharing a wire value need no check here: the constants are
// the cases of one decode switch, where a duplicate does not compile.
var WALRecAnalyzer = &Analyzer{
	Name: "walrec",
	Doc:  "every WAL record type has a replay case and a record struct that claims it",
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
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // sorted
		if len(name) <= len(cfg.WALRecPrefix) || name[:len(cfg.WALRecPrefix)] != cfg.WALRecPrefix {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		recs[c] = declSite(pkg, name)
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}

	// Scan the package for replay cases and type methods.
	typeFns := map[string]bool{}
	for _, fn := range cfg.WALTypeFuncs {
		typeFns[fn] = true
	}
	inCase := map[*types.Const]bool{}
	claimed := map[*types.Const]bool{}
	lookupConst := func(e ast.Expr) *types.Const {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		c, _ := pkg.Info.Uses[id].(*types.Const)
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
			case *ast.FuncDecl:
				if !typeFns[n.Name.Name] || n.Body == nil {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok {
						if c := lookupConst(e); c != nil {
							claimed[c] = true
						}
					}
					return true
				})
			}
			return true
		})
	}

	for _, name := range names {
		c := scope.Lookup(name).(*types.Const)
		if !inCase[c] {
			diags = append(diags, prog.diag("walrec", recs[c],
				"WAL record type %s has no replay-switch case: recovery would refuse logs containing it", name))
		}
		if !claimed[c] {
			diags = append(diags, prog.diag("walrec", recs[c],
				"WAL record type %s is named in no %v method: dead record type or missing write path",
				name, cfg.WALTypeFuncs))
		}
	}
	return diags
}
