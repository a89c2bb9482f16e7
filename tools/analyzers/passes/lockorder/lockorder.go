// Package lockorder mechanically enforces the read side of the repository's
// lock hierarchy around the streaming engine:
//
//  1. Read path: no function reachable from an HTTP GET handler may acquire
//     the engine's collector mutex — GET handlers serve exclusively from the
//     published snapshot. Calls into the engine from the read path are
//     restricted to the declared read-safe method set.
//  2. Read-safe honesty: inside the engine's own package, the declared
//     read-safe methods must not (transitively, within the package) acquire
//     the collector mutex — otherwise rule 1's allowlist would rot silently.
//
// The rest of the hierarchy needs no pass: the timeseries store cannot
// import the engine package (the engine imports it, so that is a cycle) and
// no function can lock both mutexes directly (both are unexported fields in
// different packages).
//
// The call graph is intra-package and name-precise (edges follow
// types.Object identity, including method values), but conservative about
// dynamic dispatch: calls through interfaces or function values are not
// followed. That is the usual go/analysis trade-off — the invariants here
// guard hand-written handler plumbing, which is direct calls.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/internal/lintutil"
)

const (
	name = "lockorder"
	// enginePkg and engineType name the engine; its mutexField tops the lock
	// order.
	enginePkg  = "internal/stream"
	engineType = "Engine"
	mutexField = "mu"
	// readsafe lists the engine methods GET handlers may call (verified
	// mutex-free by rule 2).
	readsafe = "CurrentView,Stats,Subscribe,Timeseries,CampaignTimeline"
)

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid engine-mutex acquisition on GET read paths",
	Run:  run,
}

// funcNode is one top-level function in the package under analysis.
type funcNode struct {
	decl *ast.FuncDecl
	obj  *types.Func
	// callees are package-local functions referenced anywhere in the body
	// (calls and method/function values alike).
	callees []*types.Func
	// engineLocks are positions of direct <engine>.mu.Lock()/RLock() calls.
	engineLocks []token.Pos
	// engineCalls are calls to methods on the engine type, wherever declared.
	engineCalls []engineCall
	// getRoots are package-local functions this body registers as GET
	// handlers.
	getRoots []*types.Func
}

type engineCall struct {
	pos  token.Pos
	name string
}

func run(pass *analysis.Pass) (any, error) {
	safe := map[string]bool{}
	for _, m := range strings.Split(readsafe, ",") {
		safe[m] = true
	}

	dirs := map[*ast.File]*lintutil.Directives{}
	for _, f := range pass.Files {
		dirs[f] = lintutil.DirectivesFor(pass.Fset, f)
		dirs[f].ReportMalformed(pass)
	}
	allowed := func(pos token.Pos) bool {
		for f, d := range dirs {
			if f.Pos() <= pos && pos <= f.End() {
				return d.Allowed(name, pos)
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !allowed(pos) {
			pass.Reportf(pos, format, args...)
		}
	}

	nodes, index := buildGraph(pass)

	// Rule 1: nothing reachable from a GET handler may lock the engine.
	roots := map[*types.Func]bool{}
	for _, n := range nodes {
		for _, r := range n.getRoots {
			roots[r] = true
		}
	}
	for root := range roots {
		for _, n := range reachable(index, root) {
			for _, pos := range n.engineLocks {
				report(pos,
					"engine mutex acquired on the GET read path (reachable from handler %s): GET handlers must serve from the published snapshot", root.Name())
			}
			for _, ec := range n.engineCalls {
				if !safe[ec.name] {
					report(ec.pos,
						"GET read path (handler %s) calls (%s).%s, which is not in the read-safe set {%s}: it may acquire the engine mutex and stall ingestion",
						root.Name(), engineType, ec.name, readsafe)
				}
			}
		}
	}

	// Rule 2: declared read-safe methods must really be mutex-free. Only
	// checkable in the engine's own package.
	if lintutil.PkgMatches(pass.Pkg.Path(), enginePkg) {
		for _, n := range nodes {
			if n.decl.Recv == nil || !safe[n.obj.Name()] || !onEngine(n.obj) {
				continue
			}
			for _, m := range reachable(index, n.obj) {
				if len(m.engineLocks) > 0 {
					report(n.decl.Name.Pos(),
						"read-safe method %s reaches an engine-mutex acquisition in %s: remove it from the read-safe set or make it lock-free", n.obj.Name(), m.obj.Name())
					break
				}
			}
		}
	}
	return nil, nil
}

// buildGraph indexes every top-level function with its lock sites, engine
// calls, local references and GET-handler registrations.
func buildGraph(pass *analysis.Pass) ([]*funcNode, map[*types.Func]*funcNode) {
	var nodes []*funcNode
	index := map[*types.Func]*funcNode{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{decl: fd, obj: obj}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				switch e := node.(type) {
				case *ast.CallExpr:
					n.scanCall(pass, e)
				case *ast.Ident:
					if fn, ok := pass.TypesInfo.Uses[e].(*types.Func); ok && fn.Pkg() == pass.Pkg {
						n.callees = append(n.callees, fn)
					}
				}
				return true
			})
			nodes = append(nodes, n)
			index[obj] = n
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].decl.Pos() < nodes[j].decl.Pos() })
	return nodes, index
}

// scanCall classifies one call expression: lock acquisition, engine method
// call, or GET-handler registration.
func (n *funcNode) scanCall(pass *analysis.Pass, call *ast.CallExpr) {
	if fn := lintutil.Callee(pass.TypesInfo, call); fn != nil {
		if name := fn.Name(); name == "Lock" || name == "RLock" {
			if recv := lockReceiver(pass.TypesInfo, call); recv != nil && lintutil.IsTypeIn(recv, engineType, enginePkg) {
				n.engineLocks = append(n.engineLocks, call.Pos())
			}
		}
		if onEngine(fn) {
			n.engineCalls = append(n.engineCalls, engineCall{pos: call.Pos(), name: fn.Name()})
		}
	}
	n.scanRegistration(pass, call)
}

// scanRegistration detects GET-handler registration shapes:
//
//	handle(pattern, s.handleX, http.MethodGet, ...)   — any call mixing a
//	    MethodGet argument with package-local function values
//	mux.HandleFunc("GET /path", s.handleX)            — Go 1.22 pattern routing
func (n *funcNode) scanRegistration(pass *analysis.Pass, call *ast.CallExpr) {
	hasGet := false
	var fns []*types.Func
	for _, arg := range call.Args {
		if isMethodGet(pass.TypesInfo, arg) {
			hasGet = true
		}
		if fn := lintutil.FuncObject(pass.TypesInfo, arg); fn != nil && fn.Pkg() == pass.Pkg {
			fns = append(fns, fn)
		}
	}
	if !hasGet && len(call.Args) >= 2 {
		if s, ok := lintutil.ConstString(pass.TypesInfo, call.Args[0]); ok &&
			(strings.HasPrefix(s, "GET ") || strings.HasPrefix(s, "HEAD ")) {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "Handle" || name == "HandleFunc" {
					hasGet = true
				}
			}
		}
	}
	if hasGet {
		n.getRoots = append(n.getRoots, fns...)
	}
}

// isMethodGet reports whether expr is a use of net/http.MethodGet (or
// MethodHead, which rides along with GET everywhere).
func isMethodGet(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Const)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
		return false
	}
	return obj.Name() == "MethodGet" || obj.Name() == "MethodHead"
}

// lockReceiver extracts x from a call shaped x.<mutex>.Lock(), returning x's
// type (nil for any other shape).
func lockReceiver(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != mutexField {
		return nil
	}
	tv, ok := info.Types[inner.X]
	if !ok {
		return nil
	}
	return tv.Type
}

// onEngine reports whether fn is a method on the engine type.
func onEngine(fn *types.Func) bool {
	return lintutil.MethodOn(fn, engineType, enginePkg)
}

// reachable returns every node reachable from root (inclusive) over
// package-local references.
func reachable(index map[*types.Func]*funcNode, root *types.Func) []*funcNode {
	seen := map[*types.Func]bool{}
	var out []*funcNode
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		n, ok := index[fn]
		if !ok {
			return
		}
		out = append(out, n)
		for _, c := range n.callees {
			walk(c)
		}
	}
	walk(root)
	return out
}
