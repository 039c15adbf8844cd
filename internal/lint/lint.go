package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the flag / suppression key, e.g. "locks".
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports findings over the whole program.
	Run func(cfg *Config, prog *Program) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LocksAnalyzer,
		LockOrderAnalyzer,
		CtxFlowAnalyzer,
		EpochAnalyzer,
		MetricsAnalyzer,
		FramesAnalyzer,
		WALRecAnalyzer,
		ObsLogAnalyzer,
		LeaksAnalyzer,
	}
}

// Config names the project-specific packages and symbols the analyzers
// check. DefaultConfig matches this repository; fixture tests point the
// fields at miniature packages under testdata.
type Config struct {
	// ProtocolPkg declares the frame-type constants (frames analyzer).
	ProtocolPkg string
	// FrameTypeName is the frame discriminator type in ProtocolPkg.
	FrameTypeName string
	// MessageTypeName is the frame struct in ProtocolPkg; composite
	// literals of it must set the Type field explicitly.
	MessageTypeName string
	// EndpointPkgs are the dispatch endpoints (master and worker): every
	// frame constant must be referenced in each, and every switch over
	// the frame type there must be exhaustive or carry a default case.
	EndpointPkgs []string
	// EventKindTypeName, when non-empty, names a second discriminator
	// type in ProtocolPkg (the worker telemetry event kinds): every
	// switch over it in an endpoint package must be exhaustive or carry
	// a default case, so adding an event kind cannot silently skip a
	// fold path.
	EventKindTypeName string

	// WALPkg holds the WAL record-type constants (walrec analyzer).
	WALPkg string
	// WALRecPrefix selects the record-type constants by name.
	WALRecPrefix string
	// WALTypeFuncs are the methods by which a record struct names the
	// type it is logged under; every record type must be named in one (in
	// addition to appearing as a replay-switch case).
	WALTypeFuncs []string

	// ObsPkg is the observability package: exempt from the logging bans
	// and home of the leveled Logger type (obslog analyzer).
	ObsPkg string
	// LoggerTypeName is the leveled logger type in ObsPkg.
	LoggerTypeName string
	// BannedLoggerMethods are unleveled compatibility methods on the
	// logger that daemon code must not call (use Infof/Warnf/Errorf).
	BannedLoggerMethods []string
	// DaemonPkgs are the packages the logging bans apply to. Patterns
	// ending in "/..." match the prefix.
	DaemonPkgs []string
	// PurePkgs must stay deterministic: no time.Now/Since/Sleep, no
	// math/rand (obslog analyzer).
	PurePkgs []string

	// LeakPkgs are the packages whose goroutines must be WaitGroup-
	// tracked or ctx/done-aware (leaks analyzer).
	LeakPkgs []string

	// LockOrderPkgs are the packages whose mutex acquisition order is
	// checked for cycles (lockorder analyzer).
	LockOrderPkgs []string
	// BlockingUnderLock names functions and methods that must never be
	// called with a mutex held, as "pkgpath.Func" or
	// "pkgpath.Type.Method" (lockorder analyzer).
	BlockingUnderLock []string

	// CtxPkgs are the packages whose spawned goroutines must keep every
	// blocking channel op cancellable (ctxflow analyzer).
	CtxPkgs []string

	// FencedFrameTypes are frame-type constant names in ProtocolPkg whose
	// Message values must set Epoch at mint time (epoch analyzer).
	FencedFrameTypes []string
	// FencedWALTypes are record struct type names in WALPkg whose
	// composite literals must thread the Epoch field (epoch analyzer).
	FencedWALTypes []string

	// MetricPrefix is the mandatory metric family-name prefix; families
	// must match ^<prefix>[a-z0-9_]+$ (metrics analyzer).
	MetricPrefix string
	// MetricDocFiles are module-relative non-Go files scanned for metric
	// names that must correspond to a registered family.
	MetricDocFiles []string
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		ProtocolPkg:       "cwc/internal/protocol",
		FrameTypeName:     "Type",
		MessageTypeName:   "Message",
		EndpointPkgs:      []string{"cwc/internal/server", "cwc/internal/worker"},
		EventKindTypeName: "EventKind",

		WALPkg:       "cwc/internal/server",
		WALRecPrefix: "walRec",
		WALTypeFuncs: []string{"typ"},

		ObsPkg:              "cwc/internal/obs",
		LoggerTypeName:      "Logger",
		BannedLoggerMethods: []string{"Printf"},
		DaemonPkgs:          []string{"cwc/internal/...", "cwc/cmd/cwc-server", "cwc/cmd/cwc-worker"},
		PurePkgs:            []string{"cwc/internal/core", "cwc/internal/lp", "cwc/internal/predict"},

		LeakPkgs: []string{"cwc/internal/server", "cwc/internal/worker", "cwc/internal/replica"},

		LockOrderPkgs: []string{
			"cwc/internal/server", "cwc/internal/worker",
			"cwc/internal/replica", "cwc/internal/obs", "cwc/internal/wal",
		},
		BlockingUnderLock: []string{
			"cwc/internal/protocol.Conn.Send",
			"cwc/internal/protocol.Conn.Recv",
			"time.Sleep",
		},

		CtxPkgs: []string{"cwc/internal/server", "cwc/internal/worker", "cwc/internal/replica"},

		FencedFrameTypes: []string{"TypeWelcome", "TypeResult", "TypeFailure", "TypeCheckpoint"},
		FencedWALTypes:   []string{"walEpochRec", "walSnapshot"},

		MetricPrefix:   "cwc_",
		MetricDocFiles: []string{"docs/observability.md"},
	}
}

// matchPkg reports whether an import path matches a pattern; a pattern
// ending in "/..." matches the prefix and everything below it.
func matchPkg(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}

func matchAnyPkg(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPkg(p, path) {
			return true
		}
	}
	return false
}

// Timing is one analyzer's wall-clock cost within a Run.
type Timing struct {
	Analyzer string        `json:"analyzer"`
	Elapsed  time.Duration `json:"elapsed_ns"`
}

// Run executes the given analyzers over the program, drops findings
// suppressed by //lint:ignore directives, and returns the rest sorted by
// position. Malformed directives are reported as driver diagnostics,
// and suppressions that no finding needed are reported as "unused".
func (p *Program) Run(cfg *Config, analyzers []*Analyzer) []Diagnostic {
	diags, _ := p.RunTimed(cfg, analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall-clock timings. The first
// timing row ("substrate") is the shared snapshot build — the CFGs and
// call graph every interprocedural analyzer reuses — so the cost is
// visible once instead of being silently paid per analyzer.
func (p *Program) RunTimed(cfg *Config, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	sup, diags := p.collectIgnores(analyzers)
	var timings []Timing
	start := time.Now()
	p.Index()
	timings = append(timings, Timing{Analyzer: "substrate", Elapsed: time.Since(start)})
	for _, a := range analyzers {
		start = time.Now()
		for _, d := range a.Run(cfg, p) {
			if sup.suppressed(a.Name, d.Position) {
				continue
			}
			diags = append(diags, d)
		}
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
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
	return diags, timings
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
func (p *Program) collectIgnores(analyzers []*Analyzer) (*suppressions, []Diagnostic) {
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
