// Package load turns Go packages on disk into typed syntax for the analysis
// passes, using nothing but the standard library and the go command — the
// offline replacement for golang.org/x/tools/go/packages.
//
// Module packages are discovered with `go list -deps -json` (so build
// constraints, nested-module exclusion and file selection are exactly the go
// command's), parsed with go/parser and type-checked with go/types. Imports
// inside the analyzed module are resolved recursively from source through the
// same path; everything else (the standard library) falls back to the
// `source` compiler importer, which works without pre-built export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully loaded, type-checked package.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Resolver maps an import path to the source files that implement it,
// reporting ok=false for paths it does not own (which then fall back to the
// standard-library importer).
type Resolver func(path string) (dir string, files []string, ok bool)

// Loader parses and type-checks packages on demand, caching by import path.
// All packages loaded through one Loader share a FileSet and one type-checker
// universe, so types.Object identities are comparable across packages.
type Loader struct {
	Fset    *token.FileSet
	resolve Resolver
	std     types.Importer
	cache   map[string]*Package
	loading map[string]bool
	// Errors accumulates parse and type errors from every package loaded so
	// far. Analysis of a package that does not compile is meaningless, so
	// callers must fail when this is non-empty.
	Errors []error
}

// NewLoader builds a Loader over the given resolver.
func NewLoader(resolve Resolver) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer over the loader, which is what lets the
// type checker pull in-module dependencies through the same cache.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, _, ok := l.resolve(path); ok {
		pkg, err := l.LoadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadPackage loads one import path owned by the resolver.
func (l *Loader) LoadPackage(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, names, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("load: %q not resolvable", path)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: %q has no Go files", path)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			l.Errors = append(l.Errors, err)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: %q: every file failed to parse", path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.Errors = append(l.Errors, err)
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info) // errors collected above
	pkg := &Package{
		PkgPath:   path,
		Name:      tpkg.Name(),
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.cache[path] = pkg
	return pkg, nil
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
}

// goList runs the go command in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var entries []listEntry
	dec := json.NewDecoder(out)
	for {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			_ = cmd.Wait()
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		entries = append(entries, e)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return entries, nil
}

// Module loads the packages matching patterns (e.g. "./...") in the module
// rooted at root, returning them in deterministic (import path) order. The
// full in-module dependency closure is type-checked; only the pattern-matched
// roots are returned for analysis.
func Module(root string, patterns []string) ([]*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Standard"}, patterns...)
	deps, err := goList(absRoot, args...)
	if err != nil {
		return nil, err
	}
	meta := map[string]listEntry{}
	for _, e := range deps {
		if !e.Standard && len(e.GoFiles) > 0 {
			meta[e.ImportPath] = e
		}
	}
	rootArgs := append([]string{"list", "-json=ImportPath,GoFiles"}, patterns...)
	rootEntries, err := goList(absRoot, rootArgs...)
	if err != nil {
		return nil, err
	}

	l := NewLoader(func(path string) (string, []string, bool) {
		e, ok := meta[path]
		if !ok {
			return "", nil, false
		}
		return e.Dir, e.GoFiles, true
	})
	var pkgs []*Package
	for _, e := range rootEntries {
		if len(e.GoFiles) == 0 {
			continue // test-only or empty package: nothing to analyze
		}
		pkg, err := l.LoadPackage(e.ImportPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(l.Errors) > 0 {
		msgs := make([]string, 0, len(l.Errors))
		for _, e := range l.Errors {
			msgs = append(msgs, e.Error())
		}
		sort.Strings(msgs)
		return nil, fmt.Errorf("load: packages do not type-check:\n  %s", strings.Join(msgs, "\n  "))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// Dir loads the single package in dir (non-test files), resolving imports of
// sibling directories under srcRoot the way a GOPATH tree would — the layout
// analysistest testdata uses. Import paths are directory paths relative to
// srcRoot.
func Dir(srcRoot, pkgPath string) (*Package, []error) {
	l := NewLoader(func(path string) (string, []string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		names, err := goFilesIn(dir)
		if err != nil || len(names) == 0 {
			return "", nil, false
		}
		return dir, names, true
	})
	pkg, err := l.LoadPackage(pkgPath)
	if err != nil {
		return nil, append(l.Errors, err)
	}
	return pkg, l.Errors
}

// goFilesIn lists the non-test .go files of one directory, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
