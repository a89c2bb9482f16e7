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

// allowPrefix starts an allow directive. A finding of a check is allowed
// when its line, or the line under the directive, carries
//
//	//cryptolint:allow <check>[,<check>...] <reason>
//
// where each check is one of allowChecks. The reason is mandatory: a
// suppression nobody can justify is one nobody can review. The legitimate
// directclock ones are the sites a seam defaults to the real clock and pure
// telemetry that never feeds recorded state.
const allowPrefix = "cryptolint:allow"

// allowChecks are the checks an allow directive may name.
var allowChecks = map[string]bool{"directclock": true, "guardedby": true}

// directive returns the rest of the line comment c after prefix, if c starts
// with it.
func directive(c *ast.Comment, prefix string) (string, bool) {
	return strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), prefix)
}

// allowDirective is one check named by an allow directive; it covers the
// directive's line and the line below.
type allowDirective struct {
	pos   token.Position
	check string
	used  bool
}

// allows is one file's allow directives.
type allows []*allowDirective

// parseAllows reads a file's allow directives. It returns a finding for each
// one that gives no reason or names an unknown check; such a directive
// suppresses nothing.
func parseAllows(fset *token.FileSet, f *ast.File) (allows, []string) {
	var out allows
	var bad []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := directive(c, allowPrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			names, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			if names == "" || strings.TrimSpace(reason) == "" {
				bad = append(bad, fmt.Sprintf("%s: allow directive needs a reason: //%s <check> <reason>", pos, allowPrefix))
				continue
			}
			for _, name := range strings.Split(names, ",") {
				if name = strings.TrimSpace(name); !allowChecks[name] {
					bad = append(bad, fmt.Sprintf("%s: allow directive names unknown check %q: want directclock or guardedby", pos, name))
					continue
				}
				out = append(out, &allowDirective{pos: pos, check: name})
			}
		}
	}
	return out, bad
}

// allow reports whether a directive for check covers line, and marks every
// such directive used.
func (a allows) allow(check string, line int) bool {
	ok := false
	for _, d := range a {
		if d.check == check && (line == d.pos.Line || line == d.pos.Line+1) {
			d.used, ok = true, true
		}
	}
	return ok
}

// stale returns a finding for each directive for check that allowed nothing.
func (a allows) stale(check, why string) []string {
	var out []string
	for _, d := range a {
		if d.check == check && !d.used {
			out = append(out, fmt.Sprintf("%s: stale //%s %s: %s", d.pos, allowPrefix, check, why))
		}
	}
	return out
}

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
// covers, every malformed allow directive, and every directclock directive
// that covers no clock read.
func clockReads(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		allowed, bad := parseAllows(fset, f)
		out = append(out, bad...)
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
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || local == "" || !clockFuncs[sel.Sel.Name] {
				return local != ""
			}
			// A resolved identifier (Obj set) is a local that shadows the
			// import, e.g. a time.Time value whose After reads no clock.
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && x.Obj == nil {
				if p := fset.Position(sel.Pos()); !allowed.allow("directclock", p.Line) {
					out = append(out, fmt.Sprintf("%s: direct %s.%s in a clock-seam package: thread the injected clock, or justify with //%s directclock <reason>",
						p, local, sel.Sel.Name, allowPrefix))
				}
			}
			return true
		})
		out = append(out, allowed.stale("directclock", "its line and the next read no clock")...)
	}
	return out
}

// TestClockSeam fails, naming file:line, on a wall-clock read in a package
// with a clock seam that no allow directive justifies, and on a malformed or
// stale allow directive in any package under internal/, pkg/ or cmd/. A
// directclock directive outside the clock-seam packages is stale: the check
// does not run there.
func TestClockSeam(t *testing.T) {
	fset := token.NewFileSet()
	seam := map[string]bool{}
	for _, dir := range clockSeamPkgs {
		seam[dir] = true
	}
	checked := 0
	for _, p := range parseSourcePackages(t, fset, "internal", "pkg", "cmd") {
		if seam[p.dir] {
			checked++
			for _, finding := range clockReads(fset, p.files) {
				t.Error(finding)
			}
			continue
		}
		for _, f := range p.files {
			allowed, bad := parseAllows(fset, f)
			for _, finding := range append(bad, allowed.stale("directclock", "outside the clock-seam packages")...) {
				t.Error(finding)
			}
		}
	}
	if checked != len(clockSeamPkgs) {
		t.Fatalf("parsed %d clock-seam packages, want %d", checked, len(clockSeamPkgs))
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
		{"misspelled check", `package p
import "time"
func f() time.Time {
	return time.Now() //cryptolint:allow directclok a typo suppresses nothing
}`, []string{`unknown check "directclok"`, "direct time.Now"}},
		{"stale directive", `package p
import "time"
func f(d time.Duration) time.Duration {
	//cryptolint:allow directclock nothing here reads the clock
	return 2 * d
}`, []string{"src.go:4:2: stale //cryptolint:allow directclock"}},
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
