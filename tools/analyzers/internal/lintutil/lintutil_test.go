package lintutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"cryptomining/tools/analyzers/analysis"
)

const directiveSrc = `package p

//cryptolint:allow alpha covered line plus the next one
var a = 1
var b = 2

var c = 3 //cryptolint:allow beta,gamma trailing form covers its own line

//cryptolint:allow delta
var d = 4

// Prose mentioning cryptolint:allow inside a sentence is still a directive
// only when the comment starts with the marker.
var e = 5
`

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// posAtLine fabricates a position on the given line of the parsed file.
func posAtLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

func TestDirectives(t *testing.T) {
	fset, f := parse(t, directiveSrc)
	d := DirectivesFor(fset, f)

	cases := []struct {
		name string
		line int
		want bool
	}{
		{"alpha", 3, true},  // the directive's own line
		{"alpha", 4, true},  // the line below
		{"alpha", 5, false}, // coverage stops after one line
		{"beta", 7, true},   // trailing directive covers its line
		{"gamma", 7, true},  // multiple names in one directive
		{"beta", 6, false},
		{"omega", 4, false}, // unlisted analyzer never allowed
	}
	for _, c := range cases {
		if got := d.Allowed(c.name, posAtLine(fset, f, c.line)); got != c.want {
			t.Errorf("Allowed(%q, line %d) = %v, want %v", c.name, c.line, got, c.want)
		}
	}

	// The reason-less directive on line 9 must be recorded as malformed and
	// must not suppress anything.
	if len(d.missing) != 1 {
		t.Fatalf("malformed directives recorded = %d, want 1", len(d.missing))
	}
	if line := fset.Position(d.missing[0]).Line; line != 9 {
		t.Errorf("malformed directive at line %d, want 9", line)
	}
	if d.Allowed("delta", posAtLine(fset, f, 10)) {
		t.Error("reason-less directive must not suppress")
	}

	var reported []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: &analysis.Analyzer{Name: "test"},
		Fset:     fset,
		Report:   func(diag analysis.Diagnostic) { reported = append(reported, diag) },
	}
	d.ReportMalformed(pass)
	if len(reported) != 1 {
		t.Fatalf("ReportMalformed emitted %d diagnostics, want 1", len(reported))
	}
}

func TestPkgMatches(t *testing.T) {
	if !PkgMatches("cryptomining/internal/stream", "internal/stream", "internal/api") {
		t.Error("expected fragment match")
	}
	if PkgMatches("cryptomining/internal/obs", "internal/stream", "internal/api") {
		t.Error("unexpected fragment match")
	}
	if PkgMatches("anything") {
		t.Error("empty fragment list matches nothing")
	}
}
