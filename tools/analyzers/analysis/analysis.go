// Package analysis is a self-contained, dependency-free subset of the
// golang.org/x/tools/go/analysis API: enough surface (Analyzer, Pass,
// Diagnostic) for the cryptolint passes to be written in the upstream idiom,
// without the main repository ever depending on x/tools. The build
// environment for this repository is intentionally offline, so the framework
// is vendored as an API-compatible shim instead of imported; if x/tools ever
// becomes available, the passes port by changing one import path.
//
// Differences from upstream, all deliberate:
//   - no Facts, no Requires/ResultOf (the cryptolint passes are independent
//     single-package passes by design);
//   - no SuggestedFixes (cryptolint is a gate, not a rewriter);
//   - passes receive the full typed syntax of exactly one package, loaded by
//     the sibling load package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: an invariant checker that
// inspects a single package and reports diagnostics.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in allow directives
	// (//cryptolint:allow <name> <reason>). Must be a valid identifier.
	Name string
	// Doc is the help text: first line is the one-sentence summary.
	Doc string
	// Run executes the pass over one package. Diagnostics go through
	// pass.Report; the result value is unused by this shim (kept for API
	// compatibility).
	Run func(*Pass) (any, error)
}

// Pass is the interface between one Analyzer and the one package being
// analyzed: the typed syntax trees plus a diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver and the test harness install
	// their own sinks.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
