// Package directclock forbids direct wall-clock reads in packages that
// expose an injectable Clock seam.
//
// The repository's core guarantee — streaming results bit-identical to the
// batch pipeline, across crashes and restarts — holds only because every
// timestamp that can influence recorded state flows through an injectable
// Clock (stream.Config.Clock, probe.Clock, sandbox/feeds/pool
// Clock fields). A single stray time.Now() in one of those packages
// reintroduces nondeterminism that no test can pin down. This pass makes the
// convention mechanical: inside the guarded packages, any direct use of the
// time package's clock functions is a finding unless the site carries an
//
//	//cryptolint:allow directclock <reason>
//
// directive. Legitimate suppressions are exactly two kinds: the designated
// default-wiring sites (the one place a seam defaults to the real clock) and
// pure wall-clock telemetry (latency histograms, uptime counters) that never
// feeds serialized or result-bearing state.
package directclock

import (
	"go/ast"
	"go/types"
	"strings"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/internal/lintutil"
)

// clockFuncs are the time-package functions that read or schedule against
// the process wall clock.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
}

// guardedPkgs are the package-path fragments the invariant guards.
var guardedPkgs = []string{
	"internal/stream", "internal/probe", "internal/timeseries", "internal/sandbox", "internal/feeds",
	"internal/pool", "internal/persist", "internal/api", "internal/scenario",
}

const name = "directclock"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid direct time.Now/Since/NewTimer/... in packages that expose a Clock seam",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgMatches(pass.Pkg.Path(), guardedPkgs...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		dirs := lintutil.DirectivesFor(pass.Fset, file)
		dirs.ReportMalformed(pass)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := lintutil.FuncObject(pass.TypesInfo, sel)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !clockFuncs[fn.Name()] {
				return true
			}
			// Methods like (time.Time).After/Sub share names with the
			// package-level clock functions but read no clock — only
			// receiver-less functions qualify.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if dirs.Allowed(name, sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"direct time.%s in a Clock-seam package %s: thread the injected Clock, or justify with //cryptolint:allow directclock <reason>",
				fn.Name(), shortPath(pass.Pkg.Path()))
			return true
		})
	}
	return nil, nil
}

// shortPath trims the module prefix for readable messages.
func shortPath(p string) string {
	if i := strings.Index(p, "internal/"); i > 0 {
		return p[i:]
	}
	return p
}
