package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path. Testdata packages loaded with
	// LoadDir carry the virtual path the caller assigned.
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Types and TypesInfo are the go/types results. TypesInfo is always
	// non-nil and as complete as type checking allowed.
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems. Analyzers still run on
	// the partial information, but drivers should surface these.
	TypeErrors []error
}

// Loader parses and type-checks packages of the enclosing Go module.
//
// Imports — both standard library and intra-module — are resolved by
// compiling dependencies from source (go/importer's "source" mode),
// which keeps the tool free of external dependencies. Source-mode
// import resolution consults the go command using the process working
// directory, so the loader must be created with the working directory
// inside the module it analyzes.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	imp types.ImporterFrom
}

// NewLoader locates the enclosing module (walking up from the working
// directory to the nearest go.mod) and prepares a loader for it.
func NewLoader() (*Loader, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := modulePath(data)
	if modPath == "" {
		return nil, fmt.Errorf("analysis: cannot determine module path from %s/go.mod", root)
	}
	fset := token.NewFileSet()
	imp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{Fset: fset, ModRoot: root, ModPath: modPath, imp: imp}, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves package patterns to directories and loads each one.
// Supported patterns: a directory path ("./internal/sim", "."), or a
// recursive pattern ("./...", "./internal/...") covering every package
// directory beneath the prefix. Directories named testdata or vendor,
// hidden/underscore directories and nested modules (a go.mod below the
// prefix, which the go tool's "./..." also leaves out) are skipped, as
// are directories with no non-test Go files.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(dir string) {
		// Dedupe by absolute path so the same package named through
		// different patterns ("./internal/sim" and "/abs/…/internal/sim",
		// or once explicitly and once via "./...") loads exactly once.
		key := dir
		if abs, err := filepath.Abs(dir); err == nil {
			key = abs
		}
		if !seen[key] {
			seen[key] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if path != base {
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
						return filepath.SkipDir
					}
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		addDir(filepath.Clean(pat))
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return l.ModPath + "/" + filepath.ToSlash(dir)
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return l.ModPath + "/" + filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// LoadDir parses and type-checks the non-test Go files of one directory
// as the package asPath. Tests use it to load testdata packages under a
// virtual import path so path-scoped analyzers apply.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg := &Package{
		Path:  asPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error; the
	// collected TypeErrors carry the details.
	pkg.Types, _ = conf.Check(asPath, l.Fset, files, pkg.TypesInfo)
	return pkg, nil
}
