package cwc

// The metric catalog's rules. Each package that records metrics declares
// its families once (internal/server's newMasterMetrics, the worker's and
// the standby's handles, wal.Open), so a scrape of freshly built
// components lists every family the module has. These tests hold what
// the declarations cannot: a family's name shape, its help text, and
// that tests and docs name only families that exist.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cwc/internal/obs"
	"cwc/internal/replica"
	"cwc/internal/server"
	"cwc/internal/wal"
	"cwc/internal/worker"
)

var (
	familyRe = regexp.MustCompile(`^cwc_[a-z0-9_]+$`)
	// metricTokenRe finds a candidate family name in text; a match is a
	// token only when no identifier character precedes it.
	metricTokenRe = regexp.MustCompile(`(^|[^A-Za-z0-9_])(cwc_[a-z0-9_]*[a-z0-9])`)
)

// declaredFamilies builds a master (its admin plane bound), a WAL, a
// worker and a standby on one registry, scrapes the master's /metrics,
// and returns the text and each family's TYPE and HELP line.
func declaredFamilies(t *testing.T) (text string, typed, helped map[string]bool) {
	t.Helper()
	reg := obs.NewRegistry()
	log, err := wal.Open(t.TempDir(), wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	m := server.New(server.Config{Addr: "127.0.0.1:0", ObsAddr: "127.0.0.1:0", Metrics: reg, WAL: log})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := worker.New(worker.Config{CPUMHz: 1000, ServerAddr: m.Addr(), Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	replica.New(replica.StandbyOptions{Metrics: reg})

	resp, err := http.Get("http://" + m.ObsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	typed, helped = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "TYPE":
				typed[f[2]] = true
			case "HELP":
				helped[f[2]] = true
			}
		}
	}
	return string(body), typed, helped
}

// TestMetricFamiliesAreDeclared: a freshly built master's scrape lists
// every family at zero, each with a HELP and a TYPE line, each named
// cwc_ + lowercase snake case.
func TestMetricFamiliesAreDeclared(t *testing.T) {
	text, typed, helped := declaredFamilies(t)
	if len(typed) < 50 {
		t.Fatalf("scrape lists %d families, want the whole catalog:\n%s", len(typed), text)
	}
	for fam := range typed {
		if !familyRe.MatchString(fam) {
			t.Errorf("metric family %q does not match %s", fam, familyRe)
		}
		if !helped[fam] {
			t.Errorf("metric family %s has no # HELP line", fam)
		}
	}
	for fam := range helped {
		if !typed[fam] {
			t.Errorf("metric family %s has a # HELP line but no series", fam)
		}
	}
}

// TestMetricNamesInDocsAndTests: every family is named in docs/, and
// every cwc_ token in docs/*.md and in the module's _test.go files is a
// family (or a histogram's _bucket/_sum/_count series), so neither can
// drift from the code.
func TestMetricNamesInDocsAndTests(t *testing.T) {
	_, typed, _ := declaredFamilies(t)
	declared := func(tok string) bool {
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(tok, suffix); ok && typed[base] {
				return true
			}
		}
		return false
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md (%v)", err)
	}
	var tests []string
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			tests = append(tests, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inDocs := map[string]bool{}
	for _, path := range append(docs, tests...) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range metricTokenRe.FindAllStringSubmatch(line, -1) {
				tok := m[2]
				if !declared(tok) {
					t.Errorf("%s:%d: metric %q is not a declared family", path, i+1, tok)
				}
				if strings.HasSuffix(path, ".md") {
					inDocs[tok] = true
				}
			}
		}
	}
	var undocumented []string
	for fam := range typed {
		if !inDocs[fam] {
			undocumented = append(undocumented, fam)
		}
	}
	sort.Strings(undocumented)
	for _, fam := range undocumented {
		t.Errorf("metric family %s is named in no docs/*.md", fam)
	}
}
