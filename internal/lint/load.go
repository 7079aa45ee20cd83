package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked module package, ready for
// analysis.
type Package struct {
	// Path is the full import path, RelPath the module-relative
	// directory ("" for the module root package).
	Path    string
	RelPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	loader *Loader
}

// Loader discovers, parses and type-checks every package in a module
// using only the standard library: module packages are parsed from
// their directories and the standard library is type-checked from
// GOROOT source through the same recursive importer, so no export data
// and no golang.org/x/tools are needed. Cgo is disabled — every stdlib
// package the analyses touch has a pure-Go fallback — which keeps the
// load deterministic and toolchain-only.
type Loader struct {
	ModRoot string // absolute path of the module root
	ModPath string // module path from go.mod

	fset *token.FileSet
	ctxt build.Context
	// cache holds stdlib packages; modCache holds module packages,
	// which are type-checked exactly once (with full Info) so every
	// importer sees the same *types.Package identity.
	cache    map[string]*loaded
	modCache map[string]*Package
	modBusy  map[string]bool
}

type loaded struct {
	pkg  *types.Package
	err  error
	busy bool
}

// NewLoader prepares a loader for the module rooted at dir (any
// directory inside the module works; the root is found by walking up to
// go.mod).
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
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		ModRoot:  root,
		ModPath:  modPath,
		fset:     token.NewFileSet(),
		ctxt:     ctxt,
		cache:    map[string]*loaded{},
		modCache: map[string]*Package{},
		modBusy:  map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`)), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule walks the module tree and loads every buildable package,
// skipping testdata, vendor and hidden directories. _test.go files are
// never analyzed: tests may read real time and shared RNGs freely (the
// -shuffle gate covers their order-dependence instead).
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir. dir may
// live under testdata (the golden-test fixtures do), in which case the
// import path is synthesized from the module-relative location.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	importPath := l.ModPath
	if rel != "" {
		importPath = l.ModPath + "/" + rel
	}
	if p, ok := l.modCache[importPath]; ok {
		return p, nil
	}
	if l.modBusy[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.modBusy[importPath] = true
	defer delete(l.modBusy, importPath)

	asts, err := l.parseDir(abs, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	if len(asts) == 0 { // only tests, like the module root
		return nil, &build.NoGoError{Dir: abs}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := l.check(importPath, asts, info, false)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:    importPath,
		RelPath: rel,
		Fset:    l.fset,
		Files:   asts,
		Types:   tpkg,
		Info:    info,
		loader:  l,
	}
	l.modCache[importPath] = p
	return p, nil
}

// parseDir parses the buildable non-test Go files of dir, honouring
// build constraints for the host platform. Files parse concurrently:
// token.FileSet is safe for concurrent use, and parsing dominates the
// cost of the source-based stdlib import, so the fan-out here is what
// keeps a whole-module run under the CI latency budget.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	asts := make([]*ast.File, len(bp.GoFiles))
	errs := make([]error, len(bp.GoFiles))
	var wg sync.WaitGroup
	for i, name := range bp.GoFiles {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			asts[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode|parser.SkipObjectResolution)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asts, nil
}

// check type-checks a parsed package, resolving imports through the
// loader itself. Imported (non-module) packages are checked with
// IgnoreFuncBodies: the analyzers only ever look at the module's own
// ASTs, so the stdlib contributes nothing but its exported API — and
// skipping its function bodies is what keeps a cold whole-module load
// inside the CI latency budget on one core.
func (l *Loader) check(path string, asts []*ast.File, info *types.Info, apiOnly bool) (*types.Package, error) {
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: apiOnly,
		// Collect the first error but keep going so one bad file does
		// not hide the rest of the report.
		Error: func(error) {},
	}
	return conf.Check(path, l.fset, asts, info)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, everything else from GOROOT source.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Module packages go through LoadDir so analysis and import share
	// one *types.Package per path.
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if c, ok := l.cache[path]; ok {
		if c.busy {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return c.pkg, c.err
	}
	entry := &loaded{busy: true}
	l.cache[path] = entry

	bp, err := l.ctxt.Import(path, srcDir, build.FindOnly)
	if err != nil {
		entry.busy, entry.err = false, err
		return nil, err
	}
	dir := bp.Dir
	asts, err := l.parseDir(dir, 0)
	if err != nil {
		entry.busy, entry.err = false, err
		return nil, err
	}
	pkg, err := l.check(path, asts, nil, true)
	entry.busy, entry.pkg, entry.err = false, pkg, err
	return pkg, err
}
