package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the suppression key, e.g. "locks".
	Name string
	// Run reports findings over the whole program.
	Run func(prog *Program) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LocksAnalyzer,
		CtxFlowAnalyzer,
		EpochAnalyzer,
		FramesAnalyzer,
		ObsLogAnalyzer,
	}
}

// The repository's packages the analyzers are built around. They are
// constants, not configuration: the suite checks this module and its
// fixtures (testdata trees loaded under the same module path) with
// byte-identical code, and Program.scope turns a path that no longer
// resolves into a finding.
const (
	protocolPkg = "cwc/internal/protocol"
	serverPkg   = "cwc/internal/server"
	workerPkg   = "cwc/internal/worker"
	replicaPkg  = "cwc/internal/replica"
	obsPkg      = "cwc/internal/obs"
)

// unresolved is the finding for a name an analyzer is built around
// (package, type, constant, method, doc file) that the loaded program
// does not have. Without it a rename would turn the check into a silent
// pass; with it the rename has to reach internal/lint too.
func (p *Program) unresolved(analyzer, what string) Diagnostic {
	return Diagnostic{
		Analyzer: "driver",
		Position: token.Position{Filename: filepath.Join(p.Root, "go.mod"), Line: 1, Column: 1},
		Message:  fmt.Sprintf("%s is built around %s, which does not resolve in this module", analyzer, what),
	}
}

// scope resolves the packages an analyzer reads, reporting each missing
// one as unresolved.
func (p *Program) scope(analyzer string, paths ...string) ([]*Package, []Diagnostic) {
	var pkgs []*Package
	var diags []Diagnostic
	for _, path := range paths {
		if pkg := p.Lookup(path); pkg != nil {
			pkgs = append(pkgs, pkg)
		} else {
			diags = append(diags, p.unresolved(analyzer, "package "+path))
		}
	}
	return pkgs, diags
}

// declared reports each name pkg does not declare at package scope as
// unresolved.
func (p *Program) declared(analyzer string, pkg *Package, names ...string) []Diagnostic {
	var diags []Diagnostic
	for _, name := range names {
		if pkg.Types.Scope().Lookup(name) == nil {
			diags = append(diags, p.unresolved(analyzer, pkg.Path+"."+name))
		}
	}
	return diags
}

// Run executes the given analyzers over the program, drops findings
// suppressed by //lint:ignore directives, and returns the rest sorted by
// position. Malformed directives are reported as driver diagnostics,
// and suppressions that no finding needed are reported as "unused".
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	sup, diags := p.collectIgnores()
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if sup.suppressed(a.Name, d.Position) {
				continue
			}
			diags = append(diags, d)
		}
	}
	for _, d := range sup.unused(analyzers) {
		if sup.suppressed("unused", d.Position) {
			continue
		}
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignoreRe matches "lint:ignore analyzer[,analyzer...] reason". The
// reason is mandatory: a suppression with no justification is itself a
// finding.
var ignoreRe = regexp.MustCompile(`^lint:ignore\s+(\S+)(\s+(.*))?$`)

// directive is one parsed //lint:ignore comment; used tracks which of
// its analyzer names actually matched a finding, so stale suppressions
// become findings themselves.
type directive struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

// suppressions maps file name -> line -> directives on that line. A
// directive covers its own line and the line below it, so it works both
// as a trailing comment and on the line above the offending statement.
type suppressions struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			for _, name := range d.names {
				if name == analyzer {
					d.used[name] = true
					hit = true
				}
			}
		}
	}
	return hit
}

// unused reports directives whose analyzer names never matched a
// finding. Only analyzers that actually ran are judged — a directive
// for a disabled analyzer may still be load-bearing. A directive that
// itself names "unused" is the escape hatch for deliberate keep-alives.
func (s *suppressions) unused(ran []*Analyzer) []Diagnostic {
	ranSet := map[string]bool{}
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	var diags []Diagnostic
	for _, d := range s.all {
		keep := false
		for _, name := range d.names {
			if name == "unused" {
				keep = true
			}
		}
		if keep {
			continue
		}
		for _, name := range d.names {
			if name == "driver" || name == "unused" || !ranSet[name] || d.used[name] {
				continue
			}
			diags = append(diags, Diagnostic{
				Analyzer: "unused",
				Position: d.pos,
				Message:  fmt.Sprintf("lint:ignore %s suppresses nothing; delete it (or add unused to the list if it must stay)", name),
			})
		}
	}
	return diags
}

// collectIgnores scans every comment for lint:ignore directives and
// reports malformed ones (missing reason, unknown analyzer).
func (p *Program) collectIgnores() (*suppressions, []Diagnostic) {
	known := map[string]bool{"driver": true, "unused": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	sup := &suppressions{byLine: map[string]map[int][]*directive{}}
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "lint:ignore") {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					m := ignoreRe.FindStringSubmatch(text)
					if m == nil || strings.TrimSpace(m[3]) == "" {
						diags = append(diags, Diagnostic{
							Analyzer: "driver",
							Position: pos,
							Message:  "malformed lint:ignore: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
						})
						continue
					}
					names := strings.Split(m[1], ",")
					for _, name := range names {
						if !known[name] {
							diags = append(diags, Diagnostic{
								Analyzer: "driver",
								Position: pos,
								Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q", name),
							})
						}
					}
					d := &directive{pos: pos, names: names, used: map[string]bool{}}
					sup.all = append(sup.all, d)
					if sup.byLine[pos.Filename] == nil {
						sup.byLine[pos.Filename] = map[int][]*directive{}
					}
					sup.byLine[pos.Filename][pos.Line] = append(sup.byLine[pos.Filename][pos.Line], d)
				}
			}
		}
	}
	return sup, diags
}

// diag builds a Diagnostic at a node's position.
func (p *Program) diag(analyzer string, node ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Position: p.Fset.Position(node.Pos()),
		Message:  fmt.Sprintf(format, args...),
	}
}

// exprString renders an expression as a stable key for matching lock
// bases ("m", "ps", "m.cfg"). Unmatchable shapes render uniquely enough
// to never alias.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// namedOrPtr unwraps pointers and returns the named type, or nil.
func namedOrPtr(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOrPtr(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name &&
		obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
