// Package analysistest runs an analyzer over testdata packages and checks
// its diagnostics against `// want` comments — the offline equivalent of
// golang.org/x/tools/go/analysis/analysistest.
//
// Testdata layout and expectation syntax follow upstream: packages live under
// <testdata>/src/<pkg>, and a line expecting diagnostics carries
//
//	code() // want "first regexp" "second regexp"
//
// Every diagnostic must match a want on its line, in order of appearance, and
// every want must be matched, or the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/load"
)

// Run analyzes each named package under testdata/src with a and compares
// diagnostics against the packages' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	for _, pkgPath := range pkgs {
		pkg, errs := load.Dir(srcRoot, pkgPath)
		if len(errs) > 0 {
			for _, err := range errs {
				t.Errorf("%s: load: %v", pkgPath, err)
			}
			continue
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			t.Errorf("%s: analyzer %s: %v", pkgPath, a.Name, err)
			continue
		}
		check(t, pkg, diags)
	}
}

// want is one expected-diagnostic pattern at a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// check compares reported diagnostics against the want comments of pkg.
func check(t *testing.T, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		wants = append(wants, wantsIn(t, pkg.Fset, f)...)
	}
	index := map[string][]*want{}
	for _, w := range wants {
		key := fmt.Sprintf("%s:%d", w.file, w.line)
		index[key] = append(index[key], w)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range index[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// wantsIn extracts the want expectations of one file.
func wantsIn(t *testing.T, fset *token.FileSet, f *ast.File) []*want {
	t.Helper()
	var out []*want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, raw := range splitQuoted(strings.TrimPrefix(text, "want ")) {
				pattern, err := strconv.Unquote(raw)
				if err != nil {
					t.Errorf("%s:%d: malformed want pattern %s: %v", pos.Filename, pos.Line, raw, err)
					continue
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Errorf("%s:%d: want pattern does not compile: %v", pos.Filename, pos.Line, err)
					continue
				}
				out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
			}
		}
	}
	return out
}

// splitQuoted cuts `"a b" "c"` into its quoted segments (double or back
// quotes), tolerating escaped quotes inside double-quoted strings.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		switch s[i] {
		case ' ', '\t':
			i++
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j < 0 {
				return out
			}
			out = append(out, s[i:i+j+2])
			i += j + 2
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j >= len(s) {
				return out
			}
			out = append(out, s[i:j+1])
			i = j + 1
		default:
			// Trailing prose after the patterns is tolerated (and ignored).
			return out
		}
	}
	return out
}
