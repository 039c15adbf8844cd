package lint_test

// The fixture harness: every tree under testdata is loaded as a tiny
// copy of this module (its packages are cwc/internal/..., so the
// analyzers find the names they are built around with nothing pointed
// anywhere) and run through one analyzer; the expected diagnostics
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

// analyzer finds a member of the suite by name.
func analyzer(t *testing.T, name string) []*lint.Analyzer {
	t.Helper()
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return []*lint.Analyzer{a}
		}
	}
	t.Fatalf("unknown analyzer %q", name)
	return nil
}

// runFixture loads testdata/<fixture> as module "cwc" and checks the
// named analyzer's output against the want comments.
func runFixture(t *testing.T, fixture, name string) {
	t.Helper()
	root := filepath.Join("testdata", fixture)
	prog, err := lint.LoadModuleAs(root, "cwc")
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(analyzer(t, name))
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

func TestLocksFixture(t *testing.T)   { runFixture(t, "locks", "locks") }
func TestFramesFixture(t *testing.T)  { runFixture(t, "frames", "frames") }
func TestObsLogFixture(t *testing.T)  { runFixture(t, "obslog", "obslog") }
func TestCtxFlowFixture(t *testing.T) { runFixture(t, "ctxflow", "ctxflow") }
func TestEpochFixture(t *testing.T)   { runFixture(t, "epoch", "epoch") }

// ctxflow's spawn rule (a goroutine nothing can stop leaks) has a tree
// of its own, apart from the blocking-op cases.
func TestLeaksFixture(t *testing.T) { runFixture(t, "leaks", "ctxflow") }

// A name an analyzer is built around that the loaded tree does not have
// is a driver finding, never a silent pass: the locks tree has no
// internal/protocol and no internal/worker, so frames must say so
// instead of reporting nothing.
func TestUnresolvedNameIsDriverFinding(t *testing.T) {
	prog, err := lint.LoadModuleAs(filepath.Join("testdata", "locks"), "cwc")
	if err != nil {
		t.Fatal(err)
	}
	missing := map[string]bool{"cwc/internal/protocol": false, "cwc/internal/worker": false}
	for _, d := range prog.Run(analyzer(t, "frames")) {
		if d.Analyzer != "driver" {
			continue
		}
		for path := range missing {
			if strings.Contains(d.Message, "frames is built around package "+path+",") {
				missing[path] = true
			}
		}
	}
	for path, reported := range missing {
		if !reported {
			t.Errorf("frames passed silently over a tree with no %s", path)
		}
	}
}
