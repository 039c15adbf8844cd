// Package lint is the project's invariant suite: a stdlib-only analyzer
// driver that loads every package in the module (go/parser + go/types,
// no external dependencies) and runs seven analyzers over the typed
// ASTs. It has no configuration. The gate is TestRepositoryIsClean;
// cmd/cwc-vet prints the same findings for humans.
//
// The analyzers machine-check invariants that earlier PRs introduced by
// convention and that the paper's failure model depends on staying
// total: mutex-guarded struct fields (locks), acyclic lock order and no
// blocking under a mutex (lockorder), stoppable and cancellable daemon
// goroutines (ctxflow), epoch-carrying fenced frames (epoch), bounded
// and documented metrics (metrics), exhaustive frame dispatch (frames),
// leveled obs-only logging and deterministic pure packages (obslog).
// See docs/static-analysis.md for the catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path, e.g. "cwc/internal/server".
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's results for Files.
	Info *types.Info
}

// Program is a loaded module: every package, sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Root is the directory the module was loaded from; analyzers that
	// scan non-Go evidence (test files, docs) resolve paths against it.
	Root   string
	byPath map[string]*Package

	// index is the shared substrate snapshot (CFGs, call graph); built
	// once on first use and reused by every analyzer in a Run.
	index *Index
}

// Lookup returns the package with the given import path, or nil.
func (p *Program) Lookup(path string) *Package { return p.byPath[path] }

// LoadModule locates go.mod at root, reads the module path, and loads
// every package under root.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadModuleAs(root, modPath)
}

// LoadModuleAs loads every package under root as if the directory were a
// module named modPath. No go.mod is required, which lets fixture trees
// under testdata double as tiny modules.
func LoadModuleAs(root, modPath string) (*Program, error) {
	fset := token.NewFileSet()
	dirs, err := sourceDirs(root)
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]*Package) // by import path
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, dir, modPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			parsed[pkg.Path] = pkg
		}
	}
	order, err := topoOrder(parsed, modPath)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: fset, Root: root, byPath: make(map[string]*Package)}
	imp := &moduleImporter{
		loaded: prog.byPath,
		std:    importer.ForCompiler(fset, "source", nil),
	}
	for _, pkg := range order {
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
		prog.byPath[pkg.Path] = pkg
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// sourceDirs walks root collecting directories that may hold packages,
// skipping testdata, vendor, and hidden or underscore-prefixed entries.
func sourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}
	return dirs, nil
}

// parseDir parses the non-test Go files in dir; nil when there are none.
func parseDir(fset *token.FileSet, root, dir, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var files []*ast.File
	names := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		names[f.Name.Name] = true
	}
	if len(files) == 0 {
		return nil, nil
	}
	if len(names) > 1 {
		keys := make([]string, 0, len(names))
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("lint: %s: multiple packages in one directory: %s", dir, strings.Join(keys, ", "))
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	sort.Slice(files, func(i, j int) bool {
		return fset.File(files[i].Pos()).Name() < fset.File(files[j].Pos()).Name()
	})
	return &Package{Path: path, Dir: dir, Files: files}, nil
}

// topoOrder sorts packages so every module-internal import precedes its
// importer, and rejects import cycles.
func topoOrder(pkgs map[string]*Package, modPath string) ([]*Package, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = visiting
		pkg := pkgs[path]
		for _, imp := range moduleImports(pkg, modPath) {
			if _, ok := pkgs[imp]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no Go files in the module", path, imp)
			}
			if err := visit(imp, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImports lists pkg's imports that live inside the module.
func moduleImports(pkg *Package, modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue
			}
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves module-internal imports from already-checked
// packages and everything else through the toolchain's source importer.
type moduleImporter struct {
	loaded map[string]*Package
	std    types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.loaded[path]; ok {
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over one parsed package.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}
