package lint_test

// The fixture harness: every tree under testdata is loaded as a tiny
// module ("fix") and run through one analyzer; the expected diagnostics
// are `want` comments in the fixture sources themselves, golden-file
// style. A want expectation is
//
//	// want `regexp`
//
// trailing the offending line (or on the line below it, for positions
// that land on comments, like malformed lint:ignore directives). Every
// diagnostic must be claimed by a want and every want must be hit.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cwc/internal/lint"
)

var wantRe = regexp.MustCompile("want `([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans every fixture source for want comments.
func collectWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// claim marks the first unclaimed want matching a diagnostic. A want on
// line N matches diagnostics on N and N-1 (the line-below placement).
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.hit || w.file != d.Position.Filename {
			continue
		}
		if (w.line == d.Position.Line || w.line == d.Position.Line+1) && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// runFixture loads testdata/<fixture> as module "fix" and checks the
// named analyzers' output against the want comments.
func runFixture(t *testing.T, fixture string, cfg *lint.Config, names ...string) {
	t.Helper()
	root := filepath.Join("testdata", fixture)
	prog, err := lint.LoadModuleAs(root, "fix")
	if err != nil {
		t.Fatal(err)
	}
	var selected []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		for _, n := range names {
			if a.Name == n {
				selected = append(selected, a)
			}
		}
	}
	if len(selected) != len(names) {
		t.Fatalf("unknown analyzer in %v", names)
	}
	diags := prog.Run(cfg, selected)
	wants := collectWants(t, root)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want `%s`", w.file, w.line, w.re)
		}
	}
}

func TestLocksFixture(t *testing.T) {
	runFixture(t, "locks", lint.DefaultConfig(), "locks")
}

func TestFramesFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ProtocolPkg = "fix/protocol"
	cfg.EndpointPkgs = []string{"fix/server", "fix/worker"}
	runFixture(t, "frames", cfg, "frames")
}

func TestWALRecFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.WALPkg = "fix/server"
	runFixture(t, "walrec", cfg, "walrec")
}

func TestObsLogFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ObsPkg = "fix/obs"
	cfg.DaemonPkgs = []string{"fix/daemon"}
	cfg.PurePkgs = []string{"fix/pure"}
	runFixture(t, "obslog", cfg, "obslog")
}

func TestLeaksFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.LeakPkgs = []string{"fix/server"}
	runFixture(t, "leaks", cfg, "leaks")
}

func TestLockOrderFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.LockOrderPkgs = []string{"fix/server"}
	cfg.BlockingUnderLock = []string{"fix/protocol.Conn.Send"}
	runFixture(t, "lockorder", cfg, "lockorder")
}

func TestCtxFlowFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.CtxPkgs = []string{"fix/daemon"}
	runFixture(t, "ctxflow", cfg, "ctxflow")
}

func TestEpochFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ProtocolPkg = "fix/protocol"
	cfg.WALPkg = "fix/server"
	cfg.FencedFrameTypes = []string{"TypeResult"}
	cfg.FencedWALTypes = []string{"walEpochRec"}
	runFixture(t, "epoch", cfg, "epoch")
}

func TestMetricsFixture(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ObsPkg = "fix/obs"
	cfg.MetricDocFiles = []string{"docs/metrics.md"}
	runFixture(t, "metrics", cfg, "metrics")
}
