package lint

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
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

// Unit is one coherent set of files analyzed together: a package's
// non-test files, its in-package _test.go files (type-checked against the
// package), or its external _test package.
type Unit struct {
	// PkgPath is the import path ("degradedfirst/internal/sim"); external
	// test packages carry the "_test" suffix.
	PkgPath string
	Dir     string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	// Test marks units made of _test.go files.
	Test bool
}

// Loader loads and type-checks module packages from source. Module-local
// imports are resolved against the module tree; everything else (the
// standard library) goes through go/importer's source importer, so the
// whole pipeline needs nothing beyond the Go toolchain's own source.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModDir  string

	std  types.ImporterFrom
	mods map[string]*modPkg
}

// modPkg is the memoized per-directory load state.
type modPkg struct {
	path, dir string
	base      []*ast.File // non-test files
	inTest    []*ast.File // _test.go files in the package itself
	xTest     []*ast.File // _test.go files in the external <pkg>_test package
	tpkg      *types.Package
	info      *types.Info
	err       error
	done      bool // guards against import cycles
}

// NewLoader locates the enclosing module of startDir and returns a loader
// rooted there.
func NewLoader(startDir string) (*Loader, error) {
	dir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("lint: no go.mod found above %s", startDir)
		}
		dir = parent
	}
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, errors.New("lint: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModDir:  dir,
		std:     std,
		mods:    make(map[string]*modPkg),
	}, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer: module-local paths load from the
// module tree, everything else from the standard library's source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		mp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return mp.tpkg, nil
	}
	return l.std.ImportFrom(path, l.ModDir, 0)
}

// load parses and type-checks the non-test files of one module package,
// memoizing the result.
func (l *Loader) load(path string) (*modPkg, error) {
	if mp, ok := l.mods[path]; ok {
		if !mp.done {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return mp, mp.err
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	mp := &modPkg{path: path, dir: filepath.Join(l.ModDir, filepath.FromSlash(rel))}
	l.mods[path] = mp
	defer func() { mp.done = true }()

	names, err := goFilesIn(mp.dir)
	if err != nil {
		mp.err = err
		return mp, mp.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(mp.dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			mp.err = fmt.Errorf("lint: %w", err)
			return mp, mp.err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			mp.base = append(mp.base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			mp.xTest = append(mp.xTest, f)
		default:
			mp.inTest = append(mp.inTest, f)
		}
	}
	if len(mp.base) == 0 {
		mp.err = fmt.Errorf("lint: no non-test Go files in %s", mp.dir)
		return mp, mp.err
	}
	mp.tpkg, mp.info, mp.err = l.check(path, mp.base)
	return mp, mp.err
}

// check type-checks files as one package and returns the package, its
// filled types.Info, and the first type error encountered (if any).
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(terrs) > 0 {
		err = fmt.Errorf("lint: type-checking %s: %w", path, errors.Join(terrs...))
	} else if err != nil {
		err = fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return tpkg, info, err
}

// unitsFor loads a package directory and returns its analysis units:
// the package itself, its in-package tests, and its external test package.
func (l *Loader) unitsFor(path string) ([]*Unit, error) {
	mp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	units := []*Unit{{
		PkgPath: path, Dir: mp.dir, Files: mp.base, Pkg: mp.tpkg, Info: mp.info,
	}}
	if len(mp.inTest) > 0 {
		all := make([]*ast.File, 0, len(mp.base)+len(mp.inTest))
		all = append(all, mp.base...)
		all = append(all, mp.inTest...)
		tpkg, info, err := l.check(path, all)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			PkgPath: path, Dir: mp.dir, Files: mp.inTest, Pkg: tpkg, Info: info, Test: true,
		})
	}
	if len(mp.xTest) > 0 {
		tpkg, info, err := l.check(path+"_test", mp.xTest)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			PkgPath: path + "_test", Dir: mp.dir, Files: mp.xTest, Pkg: tpkg, Info: info, Test: true,
		})
	}
	return units, nil
}

// Load expands package patterns into analysis units. A pattern is either
// a directory path or a directory followed by "/..." for the whole
// subtree; testdata, vendor and hidden directories are skipped during
// recursive walks, matching the go tool.
func (l *Loader) Load(patterns []string) ([]*Unit, error) {
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		if len(base) > 1 {
			base = strings.TrimSuffix(base, string(filepath.Separator))
			base = strings.TrimSuffix(base, "/")
		}
		if base == "" {
			base = "."
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if abs != l.ModDir && !strings.HasPrefix(abs, l.ModDir+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: %s is outside module %s", pat, l.ModDir)
		}
		if !recursive {
			dirSet[abs] = true
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if names, err := goFilesIn(p); err == nil && len(names) > 0 {
				dirSet[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}

	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var units []*Unit
	for _, dir := range dirs {
		us, err := l.unitsFor(l.pkgPathFor(dir))
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// pkgPathFor maps a directory inside the module to its import path.
func (l *Loader) pkgPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// relPath maps an import path to its module-relative form ("" for the
// module root package). External test package paths keep their suffix.
func (l *Loader) relPath(pkgPath string) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.ModPath), "/")
}

// relFile rewrites an absolute file position to a stable module-relative,
// slash-separated path.
func (l *Loader) relFile(filename string) string {
	if rel, err := filepath.Rel(l.ModDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// goFilesIn lists the .go files of one directory that build constraints
// (file-name suffixes and //go:build lines) select for this host with no
// tags set, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !match {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
