// Command cryptolint is the repository's invariant checker: it runs the
// guardedby pass (annotated struct fields may only be accessed with their
// declared mutex held) over the packages matching the given patterns and
// exits non-zero when any annotation is violated.
//
// Usage (from the repository root):
//
//	go -C tools/analyzers run ./cmd/cryptolint -dir ../.. ./...
//
// or via the wrapper: scripts/cryptolint.sh [patterns...]
//
// -list prints the registered analyzers. Exit codes: 0 clean, 1 findings,
// 2 usage or load failure (e.g. the tree does not type-check).
//
// The repository's other mechanical invariants live beside the code they
// guard: the wire lock is TestWireLock in pkg/apiv1, the clock seam is
// TestClockSeam in the main module's root package, and the read tier's
// mutex-free rule is the api.Engine interface.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/load"
	"cryptomining/tools/analyzers/passes/guardedby"
)

var analyzers = []*analysis.Analyzer{guardedby.Analyzer}

// listString renders the -list output: one line per analyzer. The golden
// test consumes it.
func listString() string {
	var b strings.Builder
	for _, a := range analyzers {
		fmt.Fprintf(&b, "%-16s %s\n", a.Name, a.Doc)
	}
	return b.String()
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("cryptolint", flag.ExitOnError)
	dir := fs.String("dir", ".", "root of the module to analyze")
	list := fs.Bool("list", false, "print the registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cryptolint [flags] [package patterns]\n\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])

	if *list {
		fmt.Print(listString())
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Module(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryptolint:", err)
		return 2
	}

	type finding struct {
		pos      string
		offset   int
		analyzer string
		msg      string
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					pos:      fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column),
					offset:   p.Offset,
					analyzer: a.Name,
					msg:      d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "cryptolint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].analyzer < findings[j].analyzer
	})
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", f.pos, f.msg, f.analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cryptolint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
