package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, best-effort type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
	// TypeErrors collects non-fatal type-check problems; analyzers run
	// regardless, degrading to syntax where info is missing.
	TypeErrors []error
}

// Loader parses and type-checks packages inside one module. Local import
// paths resolve to source directories under the module root; everything
// else goes through the stdlib source importer. That keeps the tool free
// of external dependencies and working without export data.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*types.Package
	loaded map[string]*Package
}

// NewLoader locates the module root at or above dir by finding go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*types.Package),
		loaded:     make(map[string]*Package),
	}, nil
}

// Load resolves package patterns ("./...", directories, or import paths
// under the module) into parsed packages, in deterministic order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			expanded, err := l.walk(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			expanded, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(l.resolveDir(pat))
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func (l *Loader) resolveDir(pat string) string {
	if strings.HasPrefix(pat, l.ModulePath) {
		return filepath.Join(l.ModuleRoot, strings.TrimPrefix(pat, l.ModulePath))
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.ModuleRoot, pat)
}

// walk lists every directory under base containing .go files, skipping
// hidden directories and testdata (mirroring the go tool's convention).
func (l *Loader) walk(base string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir parses and type-checks the package in dir. Returns nil when the
// directory holds no eligible files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path := l.importPathFor(dir)
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		// Test files are not linted: tests legitimately use wall-clock
		// timeouts and unordered iteration.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and _GOOS/_GOARCH
		// filename suffixes) the way the go tool does, so a package with
		// per-platform variants of one function type-checks as the
		// compiler sees it rather than with every variant at once.
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkg := &Package{ImportPath: path, Dir: dir, Fset: l.fset, Files: files}
	l.loaded[path] = pkg
	pkg.Info = l.check(path, files, &pkg.TypeErrors)
	return pkg, nil
}

// check runs go/types over files with soft error handling.
func (l *Loader) check(path string, files []*ast.File, errs *[]error) *types.Info {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		Error: func(err error) {
			*errs = append(*errs, err)
		},
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if pkg != nil {
		l.cache[path] = pkg
	}
	return info
}

// moduleImporter resolves module-local import paths by type-checking
// their source directories, and delegates everything else to the stdlib
// source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.ModuleRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
		if _, err := l.loadDir(dir); err != nil {
			return nil, err
		}
		if pkg, ok := l.cache[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: could not type-check local package %s", path)
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}
