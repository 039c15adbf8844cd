package lint_test

// The gate: the repository itself must be clean under the full suite.
// Removing a frame handler, an Epoch from a fenced frame, or a mu.Lock()
// in a guarded method turns this test (and CI) red; `make lint` prints
// the same findings as file:line for humans.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"cwc/internal/lint"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := lint.LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	diags := prog.Run(lint.Analyzers())
	elapsed := time.Since(start)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// The analysis budget: the whole suite (substrate included, module
	// load excluded) must finish well inside the 30s CI allowance.
	t.Logf("analyzer suite took %v", elapsed)
	if elapsed > 30*time.Second {
		t.Errorf("analyzer suite took %v, over the 30s budget", elapsed)
	}
}
