package cryptomining

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// clockSeamPkgs are the packages whose recorded state takes time only from
// an injected clock (stream.Config.Clock, probe.Clock, the sandbox, feeds
// and pool Clock fields, the scenario manager's Now, the limiter's seam).
// One stray wall-clock read in them breaks batch ≡ stream ≡ resume in a way
// no golden test pins down.
var clockSeamPkgs = []string{
	"internal/api", "internal/feeds", "internal/persist", "internal/pool", "internal/probe",
	"internal/sandbox", "internal/scenario", "internal/stream", "internal/timeseries",
}

// clockFuncs are the time-package functions that read or schedule against
// the process wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "NewTimer": true,
	"NewTicker": true, "After": true, "AfterFunc": true, "Tick": true,
}

// allowPrefix starts an allow directive. A wall-clock read is allowed when
// its line, or the line under the directive, carries
//
//	//cryptolint:allow directclock <reason>
//
// The reason is mandatory: a suppression nobody can justify is one nobody
// can review. The legitimate ones are the sites a seam defaults to the real
// clock and pure telemetry that never feeds recorded state.
const allowPrefix = "cryptolint:allow"

// sourcePackage is the parsed non-test files of one package directory.
type sourcePackage struct {
	dir   string
	files []*ast.File
}

// parseSourcePackages parses, with comments, the non-test Go files of every
// package directory under roots (testdata excluded), sorted by directory.
func parseSourcePackages(t *testing.T, fset *token.FileSet, roots ...string) []sourcePackage {
	t.Helper()
	byDir := map[string][]*ast.File{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			byDir[dir] = append(byDir[dir], f)
			return nil
		})
		if err != nil {
			t.Fatalf("parse %s: %v", root, err)
		}
	}
	pkgs := make([]sourcePackage, 0, len(byDir))
	for dir, files := range byDir {
		pkgs = append(pkgs, sourcePackage{dir, files})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	return pkgs
}

// clockReads returns, as "file:line:col: message", every reference to a
// time-package clock function in files that no directclock allow directive
// covers, and every allow directive that gives no reason.
func clockReads(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		allowed := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				names, reason, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(text, allowPrefix)), " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					out = append(out, fmt.Sprintf("%s: allow directive needs a reason: //%s <check> <reason>", fset.Position(c.Pos()), allowPrefix))
					continue
				}
				for _, name := range strings.Split(names, ",") {
					if strings.TrimSpace(name) == "directclock" {
						line := fset.Position(c.End()).Line
						allowed[line], allowed[line+1] = true, true
					}
				}
			}
		}
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				local = "time"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "." {
			out = append(out, fmt.Sprintf("%s: dot import of time hides its clock reads", fset.Position(f.Package)))
			continue
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !clockFuncs[sel.Sel.Name] {
				return true
			}
			// A resolved identifier (Obj set) is a local that shadows the
			// import, e.g. a time.Time value whose After reads no clock.
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && x.Obj == nil {
				if p := fset.Position(sel.Pos()); !allowed[p.Line] {
					out = append(out, fmt.Sprintf("%s: direct %s.%s in a clock-seam package: thread the injected clock, or justify with //%s directclock <reason>",
						p, local, sel.Sel.Name, allowPrefix))
				}
			}
			return true
		})
	}
	return out
}

// TestClockSeam fails, naming file:line, on a wall-clock read in a package
// with a clock seam that no allow directive justifies.
func TestClockSeam(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := parseSourcePackages(t, fset, clockSeamPkgs...)
	if len(pkgs) != len(clockSeamPkgs) {
		t.Fatalf("parsed %d clock-seam packages, want %d", len(pkgs), len(clockSeamPkgs))
	}
	for _, p := range pkgs {
		for _, finding := range clockReads(fset, p.files) {
			t.Error(finding)
		}
	}
}

// TestClockReadsFindsSeededViolations feeds the checker the violations it
// exists for, and the look-alikes it must leave alone.
func TestClockReadsFindsSeededViolations(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      []string // substrings, one per expected finding
	}{
		{"direct Now", `package p
import "time"
func f() time.Time { return time.Now() }`, []string{"src.go:3:29: direct time.Now"}},
		{"function value", `package p
import "time"
var clock = time.Now`, []string{"direct time.Now"}},
		{"aliased import", `package p
import t "time"
func f(x t.Time) t.Duration { return t.Since(x) }`, []string{"direct t.Since"}},
		{"dot import", `package p
import . "time"
func f() Time { return Now() }`, []string{"dot import of time"}},
		{"reason-less directive", `package p
import "time"
func f() time.Time {
	return time.Now() //cryptolint:allow directclock
}`, []string{"needs a reason", "direct time.Now"}},
		{"justified", `package p
import "time"
func f() time.Duration {
	t0 := time.Now() //cryptolint:allow directclock latency telemetry only
	//cryptolint:allow guardedby,directclock latency telemetry only
	return time.Since(t0)
}`, nil},
		{"directive for another check", `package p
import "time"
func f() time.Time {
	return time.Now() //cryptolint:allow guardedby not a clock justification
}`, []string{"direct time.Now"}},
		{"time.Time methods", `package p
import "time"
func f(a, b time.Time) bool { return a.After(b) }`, nil},
		{"shadowed import name", `package p
import t "time"
func f(a t.Time) bool { t := a; return t.After(a) }`, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "src.go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			got := clockReads(fset, []*ast.File{f})
			if len(got) != len(c.want) {
				t.Fatalf("findings %q, want %d matching %q", got, len(c.want), c.want)
			}
			for i, want := range c.want {
				if !strings.Contains(got[i], want) {
					t.Errorf("finding %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}

// TestEveryPackageHasAComment fails, naming the package, when a package
// under internal/ or pkg/ has no "// Package <name>" comment: a package's
// own detail lives in go doc.
func TestEveryPackageHasAComment(t *testing.T) {
	pkgs := parseSourcePackages(t, token.NewFileSet(), "internal", "pkg")
	if len(pkgs) == 0 {
		t.Fatal("found no packages under internal/ or pkg/")
	}
	for _, p := range pkgs {
		name, documented := p.files[0].Name.Name, false
		for _, f := range p.files {
			documented = documented || (f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package "+name+" "))
		}
		if !documented {
			t.Errorf("%s has no // Package %s comment", p.dir, name)
		}
	}
}
