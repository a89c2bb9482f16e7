// Package guardedby enforces mutex annotations on struct fields: a field
// carrying
//
//	//cryptolint:guardedby <mu>          (mutex is a sibling field)
//	//cryptolint:guardedby <Type>.<mu>   (mutex lives on another same-package type)
//
// may only be read or written in functions that hold that mutex on every
// path from entry — either by locking it directly (per the dataflow
// must-hold walker) or by being called exclusively from functions that hold
// it (a greatest-fixpoint caller-holds propagation over the package's call
// sites).
//
// Deliberate scope and exemptions:
//   - intra-package: guard and fields must live in the analyzed package;
//   - constructors (New*/new*) are exempt — construction happens before the
//     value escapes to another goroutine, and call sites inside constructors
//     count as held for propagation for the same reason;
//   - exported functions and functions whose value escapes (stored or passed
//     as a callback) are never assumed caller-held: external and dynamic
//     callers are invisible, so they must lock for themselves;
//   - goroutine bodies never inherit the spawner's lock;
//   - an RLock counts as held (the annotation does not distinguish read and
//     write access).
package guardedby

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/internal/dataflow"
	"cryptomining/tools/analyzers/internal/lintutil"
)

const name = "guardedby"

// annotationPrefix introduces a field guard annotation, mirroring the
// grammar of the allow directive.
const annotationPrefix = "cryptolint:guardedby"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "annotated struct fields may only be accessed with their declared mutex held on every path",
	Run:  run,
}

// guardOf maps an annotated field object to its guard.
type guardOf map[*types.Var]dataflow.Guard

// access is one use of an annotated field inside a function body.
type access struct {
	fn    *dataflow.FuncNode
	pos   token.Pos
	field *types.Var
	guard dataflow.Guard
	st    dataflow.State
}

// callsite is one resolvable call between indexed functions.
type callsite struct {
	from *dataflow.FuncNode
	to   *types.Func
	st   dataflow.State
}

func run(pass *analysis.Pass) (any, error) {
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

	annotated := collectAnnotations(pass, report)
	if len(annotated) == 0 {
		return nil, nil
	}
	guards := map[dataflow.Guard]bool{}
	for _, g := range annotated {
		guards[g] = true
	}

	funcs := dataflow.IndexFuncs(pass.Files, pass.TypesInfo)
	escaped := escapedFuncs(pass, funcs)

	for guard := range guards {
		checkGuard(pass, funcs, guard, annotated, escaped, report)
	}
	return nil, nil
}

// checkGuard runs the must-hold walker for one guard over every function,
// resolves caller-holds by fixpoint, and reports unguarded accesses.
func checkGuard(pass *analysis.Pass, funcs *dataflow.Funcs, guard dataflow.Guard,
	annotated guardOf, escaped map[*types.Func]bool, report func(token.Pos, string, ...any)) {

	var accesses []access
	sites := map[*types.Func][]callsite{}
	for _, n := range funcs.Nodes {
		dataflow.WalkFunc(pass.TypesInfo, n.Decl.Body, guard, func(node ast.Node, st dataflow.State) {
			switch e := node.(type) {
			case *ast.Ident:
				obj, ok := pass.TypesInfo.Uses[e].(*types.Var)
				if !ok {
					return
				}
				if g, ok := annotated[obj]; ok && g == guard {
					accesses = append(accesses, access{fn: n, pos: e.Pos(), field: obj, guard: g, st: st})
				}
			case *ast.CallExpr:
				if fn := lintutil.Callee(pass.TypesInfo, e); fn != nil && funcs.Index[fn] != nil {
					sites[fn] = append(sites[fn], callsite{from: n, to: fn, st: st})
				}
			}
		})
	}

	// Greatest fixpoint: assume every eligible function is caller-held, then
	// strike any whose call sites do not all hold the guard. Exported
	// functions and escaped function values have invisible callers, so they
	// are never eligible.
	held := map[*types.Func]bool{}
	for _, n := range funcs.Nodes {
		held[n.Obj] = len(sites[n.Obj]) > 0 && !n.Obj.Exported() && !escaped[n.Obj]
	}
	for changed := true; changed; {
		changed = false
		for fn, ok := range held {
			if !ok {
				continue
			}
			for _, cs := range sites[fn] {
				if !cs.st.Holds(entryHeld(cs.from, held)) {
					held[fn] = false
					changed = true
					break
				}
			}
		}
	}

	for _, a := range accesses {
		if dataflow.IsConstructor(a.fn.Obj.Name()) {
			continue
		}
		if a.st.Holds(entryHeld(a.fn, held)) {
			continue
		}
		report(a.pos,
			"field %s is guarded by %s but accessed in %s without it held on every path: lock %s.%s, or ensure every caller of %s holds it",
			a.field.Name(), guardName(guard), a.fn.Obj.Name(),
			receiverHint(guard), guard.Field, a.fn.Obj.Name())
	}
}

// entryHeld resolves the entry assumption for fn: constructors count as held
// (pre-escape), everything else uses the fixpoint verdict.
func entryHeld(fn *dataflow.FuncNode, held map[*types.Func]bool) bool {
	return dataflow.IsConstructor(fn.Obj.Name()) || held[fn.Obj]
}

// escapedFuncs finds indexed functions whose value is taken anywhere in the
// package other than as the callee of a direct call — callbacks, stored
// handlers, `go f` and `defer f` targets: all of them may be invoked with an
// unknowable lock state.
func escapedFuncs(pass *analysis.Pass, funcs *dataflow.Funcs) map[*types.Func]bool {
	calleeIdents := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				calleeIdents[fun] = true
			case *ast.SelectorExpr:
				calleeIdents[fun.Sel] = true
			}
			return true
		})
	}
	escaped := map[*types.Func]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok || calleeIdents[id] {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && funcs.Index[fn] != nil {
				escaped[fn] = true
			}
			return true
		})
	}
	// `go f(...)` / `defer f(...)`: direct calls syntactically, but the
	// invocation happens outside the current lock scope; treat the target as
	// escaped unless it is only deferred (defer keeps Must-held locks, the
	// walker already models that via the call-site state).
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			if g, ok := node.(*ast.GoStmt); ok {
				if fn := lintutil.Callee(pass.TypesInfo, g.Call); fn != nil && funcs.Index[fn] != nil {
					escaped[fn] = true
				}
			}
			return true
		})
	}
	return escaped
}

// guardName renders a guard for diagnostics: Type.field.
func guardName(g dataflow.Guard) string {
	return g.Owner.Name() + "." + g.Field
}

// receiverHint names the receiver expression a fix would lock through.
func receiverHint(g dataflow.Guard) string {
	return "(" + g.Owner.Name() + ")"
}

// collectAnnotations scans struct declarations for guardedby field
// annotations, validating each against the package scope.
func collectAnnotations(pass *analysis.Pass, report func(token.Pos, string, ...any)) guardOf {
	out := guardOf{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				ownerObj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				for _, field := range st.Fields.List {
					ref, ok := fieldAnnotation(field)
					if !ok {
						continue
					}
					guard, err := resolveGuard(pass, ownerObj, ref)
					if err != "" {
						report(field.Pos(), "malformed //cryptolint:guardedby annotation: %s", err)
						continue
					}
					for _, nameIdent := range field.Names {
						if v, ok := pass.TypesInfo.Defs[nameIdent].(*types.Var); ok {
							out[v] = guard
						}
					}
				}
			}
		}
	}
	return out
}

// fieldAnnotation extracts the guard reference from a field's doc or line
// comment.
func fieldAnnotation(field *ast.Field) (ref string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, annotationPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, annotationPrefix))
			// Tolerate trailing prose after the reference.
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			return rest, true
		}
	}
	return "", false
}

// resolveGuard turns an annotation reference into a Guard, verifying the
// owner type and mutex field exist in this package.
func resolveGuard(pass *analysis.Pass, sibling *types.TypeName, ref string) (dataflow.Guard, string) {
	if ref == "" {
		return dataflow.Guard{}, "empty mutex reference; want <mu> or <Type>.<mu>"
	}
	owner := sibling
	field := ref
	if typeName, fieldName, ok := strings.Cut(ref, "."); ok {
		obj, _ := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
		if obj == nil {
			return dataflow.Guard{}, fmt.Sprintf("type %s not found in package %s", typeName, pass.Pkg.Name())
		}
		owner, field = obj, fieldName
	}
	if owner == nil {
		return dataflow.Guard{}, "annotation on an unnamed struct needs the <Type>.<mu> form"
	}
	if !hasMutexField(owner, field) {
		return dataflow.Guard{}, fmt.Sprintf("%s has no sync.Mutex/RWMutex field %q", owner.Name(), field)
	}
	return dataflow.Guard{Owner: owner, Field: field}, ""
}

// hasMutexField reports whether the named type's underlying struct declares a
// sync.Mutex or sync.RWMutex field with the given name.
func hasMutexField(owner *types.TypeName, field string) bool {
	st, ok := owner.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != field {
			continue
		}
		return lintutil.IsTypeIn(f.Type(), "Mutex", "sync") || lintutil.IsTypeIn(f.Type(), "RWMutex", "sync")
	}
	return false
}
