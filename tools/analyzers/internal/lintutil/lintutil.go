// Package lintutil holds the small pieces the cryptolint passes share:
// suppression directives, callee resolution and package/type matching.
package lintutil

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"cryptomining/tools/analyzers/analysis"
)

// Directive marker. A finding of analyzer <name> is suppressed when the line
// it is reported on — or the line immediately below the directive comment —
// carries:
//
//	//cryptolint:allow <name>[,<name>...] <reason>
//
// The reason is mandatory: a suppression nobody can justify is a suppression
// nobody can review.
const directivePrefix = "cryptolint:allow"

// Directives indexes the allow directives of one file by the lines they
// cover.
type Directives struct {
	fset *token.FileSet
	// byLine maps a covered line to the analyzer names allowed there; the
	// empty set (nil map entry never stored) cannot occur.
	byLine map[int]map[string]bool
	// missing records directive comments with no justification text, keyed by
	// position, so passes can report them exactly once.
	missing []token.Pos
}

// DirectivesFor scans one file's comments. Call once per file per pass.
func DirectivesFor(fset *token.FileSet, file *ast.File) *Directives {
	d := &Directives{fset: fset, byLine: map[int]map[string]bool{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			names, reason, _ := strings.Cut(rest, " ")
			if names == "" || strings.TrimSpace(reason) == "" {
				d.missing = append(d.missing, c.Pos())
				continue
			}
			line := fset.Position(c.End()).Line
			for _, name := range strings.Split(names, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				for _, covered := range []int{line, line + 1} {
					set := d.byLine[covered]
					if set == nil {
						set = map[string]bool{}
						d.byLine[covered] = set
					}
					set[name] = true
				}
			}
		}
	}
	return d
}

// Allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed by a directive.
func (d *Directives) Allowed(name string, pos token.Pos) bool {
	set := d.byLine[d.fset.Position(pos).Line]
	return set != nil && set[name]
}

// ReportMalformed emits one diagnostic per directive that lacks its mandatory
// justification. Passes call it once per file so a typo'd suppression fails
// loudly instead of silently not suppressing.
func (d *Directives) ReportMalformed(pass *analysis.Pass) {
	for _, pos := range d.missing {
		pass.Reportf(pos, "cryptolint:allow directive needs a justification: //cryptolint:allow <analyzer> <reason>")
	}
}

// Callee resolves the called function or method of a call expression, nil
// when the callee is dynamic (function value, interface method on an
// unresolvable receiver is still returned — types.Info resolves interface
// method objects too).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncObject resolves any identifier or selector to the function object it
// names (direct call targets and method/function values alike).
func FuncObject(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// PkgMatches reports whether pkgPath contains any of the path fragments
// (plain substring match, so "internal/stream" also matches the testdata
// stand-in laid out under that path).
func PkgMatches(pkgPath string, fragments ...string) bool {
	for _, frag := range fragments {
		if strings.Contains(pkgPath, frag) {
			return true
		}
	}
	return false
}

// NamedType unwraps pointers and aliases down to the named type, nil when the
// type has no name.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsTypeIn reports whether t (through pointers) is the named type typeName
// declared in a package whose path contains pkgFragment.
func IsTypeIn(t types.Type, typeName, pkgFragment string) bool {
	named := NamedType(t)
	if named == nil || named.Obj().Name() != typeName || named.Obj().Pkg() == nil {
		return false
	}
	return strings.Contains(named.Obj().Pkg().Path(), pkgFragment)
}

// MethodOn reports whether fn is a method whose receiver (through pointers)
// is the named type typeName in a package whose path contains pkgFragment.
func MethodOn(fn *types.Func, typeName, pkgFragment string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsTypeIn(sig.Recv().Type(), typeName, pkgFragment)
}

// ConstString evaluates expr as a compile-time string constant ("", false
// when it is not one). Works for literals and named constants alike.
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
