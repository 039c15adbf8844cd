package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// ObsLogAnalyzer enforces the observability discipline:
//
//  1. Daemon code (internal/... and the server/worker binaries, minus
//     the obs package itself) must not call the stdlib log package or
//     fmt.Print*: operational messages go through the leveled obs
//     logger so they carry ts/level/fields and respect -log-level.
//  2. Pure scheduling/prediction packages must stay deterministic: no
//     time.Now/Since/Sleep and no math/rand. Packing decisions that
//     depend on wall clocks or unseeded randomness cannot be replayed,
//     which breaks both the WAL recovery story and the chaos harnesses'
//     byte-identical-aggregate proofs.
//
// That a message picks a level needs no rule: obs.Logger has only
// leveled methods.
var ObsLogAnalyzer = &Analyzer{
	Name: "obslog",
	Run:  runObsLog,
}

// daemonCmds are the binaries the logging bans cover besides everything
// under internal/ (the obs package itself is exempt); purePkgs are the
// packages that must stay deterministic.
var (
	daemonCmds = []string{"cwc/cmd/cwc-server", "cwc/cmd/cwc-worker"}
	purePkgs   = []string{"cwc/internal/core", "cwc/internal/lp", "cwc/internal/predict"}
)

// bannedFmtFuncs are the fmt functions that write to stdout.
var bannedFmtFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

func runObsLog(prog *Program) []Diagnostic {
	_, diags := prog.scope("obslog", slices.Concat([]string{obsPkg}, daemonCmds, purePkgs)...)
	for _, pkg := range prog.Pkgs {
		inDaemon := pkg.Path != obsPkg &&
			(strings.HasPrefix(pkg.Path, "cwc/internal/") || slices.Contains(daemonCmds, pkg.Path))
		inPure := slices.Contains(purePkgs, pkg.Path)
		if !inDaemon && !inPure {
			continue
		}
		for _, f := range pkg.Files {
			if inPure {
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if path == "math/rand" || path == "math/rand/v2" {
						diags = append(diags, prog.diag("obslog", imp,
							"pure package %s imports %s: packing must be deterministic and replayable",
							pkg.Path, path))
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				switch pkgPath := usedPackage(pkg, sel); {
				case inDaemon && pkgPath == "log":
					diags = append(diags, prog.diag("obslog", call,
						"stdlib log.%s in daemon code: use the leveled obs logger (obs.Logger)", name))
				case inDaemon && pkgPath == "fmt" && bannedFmtFuncs[name]:
					diags = append(diags, prog.diag("obslog", call,
						"fmt.%s in daemon code: stdout is not a log sink; use the leveled obs logger", name))
				case inPure && pkgPath == "time" && (name == "Now" || name == "Since" || name == "Sleep"):
					diags = append(diags, prog.diag("obslog", call,
						"time.%s in pure package %s: packing must be deterministic and replayable",
						name, pkg.Path))
				}
				return true
			})
		}
	}
	return diags
}

// usedPackage returns the import path when a selector's base is a
// package name (log.Printf -> "log"), else "".
func usedPackage(pkg *Package, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
