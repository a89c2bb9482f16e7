package cryptomining

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// guardPrefix starts a struct field's lock annotation:
//
//	//cryptolint:guardedby <mu>          the mutex is a sibling field
//	//cryptolint:guardedby <Type>.<mu>   the mutex is a field of another type of the package
//
// where the mutex is a sync.Mutex or sync.RWMutex. The field may then be
// read or written only where the mutex is held on every path: locked since
// function entry, or held by every caller (a greatest fixpoint over the
// package's call sites). Deliberate scope:
//   - intra-package: the guard and its fields live in the checked package;
//   - constructors (New*, new*) are exempt, and their calls count as held:
//     construction happens before the value escapes to another goroutine;
//   - exported functions and functions whose value escapes (stored, passed
//     as a callback, or started by go) are never assumed caller-held;
//   - goroutine bodies never inherit the spawner's lock;
//   - an RLock counts as held.
//
// Fields immutable after construction are not annotated: the annotation
// asserts mutex discipline, not thread safety.
const guardPrefix = "cryptolint:guardedby"

// srcImporter type-checks the packages it has files for from source, caching
// each, and imports the standard library from the export data of the build
// cache. It records type information only for the paths preset in infos.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	infos map[string]*types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func newSrcImporter(fset *token.FileSet) *srcImporter {
	return &srcImporter{fset: fset, files: map[string][]*ast.File{}, infos: map[string]*types.Info{},
		pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "gc", nil)}
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	p, err := im.check(path, files, im.infos[path])
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// check type-checks files as the package path, filling info unless it is nil.
func (im *srcImporter) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	return (&types.Config{Importer: im}).Check(path, im.fset, files, info)
}

// newInfo makes the type information guardedBy reads.
func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{}}
}

// module is every package under internal/, pkg/ and cmd/, parsed once per
// test binary, with an importer over them that records type information for
// the packages that carry a guardedby annotation.
var module struct {
	fset *token.FileSet
	pkgs []sourcePackage
	im   *srcImporter
}

func loadModule(t *testing.T) {
	t.Helper()
	if module.im != nil {
		return
	}
	module.fset = token.NewFileSet()
	module.pkgs = parseSourcePackages(t, module.fset, "internal", "pkg", "cmd")
	module.im = newSrcImporter(module.fset)
	for _, p := range module.pkgs {
		path := "cryptomining/" + p.dir
		module.im.files[path] = p.files
		if annotated(p.files) {
			module.im.infos[path] = newInfo()
		}
	}
}

// annotated reports whether a comment of files starts with guardPrefix.
func annotated(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := directive(c, guardPrefix); ok {
					return true
				}
			}
		}
	}
	return false
}

// TestGuardedBy fails, naming file:line:col, on an access to an annotated
// field without its mutex held, on a malformed annotation, and on a guardedby
// allow directive that suppresses nothing, in any package under internal/,
// pkg/ or cmd/. Only the annotated packages are type-checked.
func TestGuardedBy(t *testing.T) {
	loadModule(t)
	checked := 0
	for _, p := range module.pkgs {
		path := "cryptomining/" + p.dir
		info := module.im.infos[path]
		if info == nil {
			for _, f := range p.files {
				allowed, _ := parseAllows(module.fset, f)
				for _, finding := range allowed.stale("guardedby", "no field of this package is annotated") {
					t.Error(finding)
				}
			}
			continue
		}
		pkg, err := module.im.Import(path)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.dir, err)
		}
		checked++
		for _, finding := range guardedBy(module.fset, p.files, pkg, info) {
			t.Error(finding)
		}
	}
	if checked == 0 {
		t.Fatal("no package under internal/, pkg/ or cmd/ carries a guardedby annotation")
	}
}

// TestGuardedByFindsSeededViolations feeds the check a package with one file
// added: a read of the stream engine's collector state without Engine.mu,
// which must give exactly its two findings, and a directive with nothing to
// suppress.
func TestGuardedByFindsSeededViolations(t *testing.T) {
	loadModule(t)
	for _, c := range []struct {
		name, dir, src string
		want           []string // substrings, one per expected finding
	}{
		{"unguarded read in internal/stream", "internal/stream", `package stream

func (e *Engine) seed() int { return len(e.col.outcomes) }`, []string{
			"internal/stream/seed.go:3:44: field col is guarded by Engine.mu but accessed in seed without it held",
			"internal/stream/seed.go:3:48: field outcomes is guarded by Engine.mu but accessed in seed without it held",
		}},
		{"stale directive", "p", `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int //cryptolint:guardedby mu
}

func (s *S) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n //cryptolint:allow guardedby the lock is held, so this suppresses nothing
}`, []string{"p/seed.go:13:13: stale //cryptolint:allow guardedby"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := parser.ParseFile(module.fset, c.dir+"/seed.go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files := append(slices.Clip(module.im.files["cryptomining/"+c.dir]), f)
			info := newInfo()
			pkg, err := module.im.check("cryptomining/"+c.dir, files, info)
			if err != nil {
				t.Fatal(err)
			}
			got := guardedBy(module.fset, files, pkg, info)
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

// TestGuardedByWants runs the check over testdata/guarded, where each line
// that must fail ends in a // want `regexp` comment: every finding must match
// the want on its line, and every want must be matched.
func TestGuardedByWants(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "testdata/guarded/guarded.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	pkg, err := newSrcImporter(fset).check("guarded", []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]*regexp.Regexp{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if re, ok := strings.CutPrefix(c.Text, "// want `"); ok {
				wants[fset.Position(c.Pos()).Line] = regexp.MustCompile(strings.TrimSuffix(re, "`"))
			}
		}
	}
	for _, finding := range guardedBy(fset, []*ast.File{f}, pkg, info) {
		line, _ := strconv.Atoi(strings.Split(finding, ":")[1])
		if re := wants[line]; re == nil || !re.MatchString(finding) {
			t.Errorf("unexpected finding %s", finding)
		}
		delete(wants, line)
	}
	for line, re := range wants {
		t.Errorf("guarded.go:%d: no finding matches %q", line, re)
	}
}

// TestLockWalk pins the must-hold walk on the shapes it models. Each row
// gives, per access to S.n in f, whether the walk counts S.mu as held there:
// "held", "unheld", or "entry" (held if and only if held at function entry).
func TestLockWalk(t *testing.T) {
	// The stand-in mutex needs no importer: the walk matches the owner type
	// and the field name, not the mutex's type.
	const header = `package p
type M struct{}
func (*M) Lock()   {}
func (*M) Unlock() {}
type S struct {
	mu M
	n  int
}
`
	for _, c := range []struct{ name, body, want string }{
		{"straight line", `func f(s *S) {
	_ = s.n
	s.mu.Lock()
	_ = s.n
	s.mu.Unlock()
	_ = s.n
}`, "entry held unheld"},
		{"early-return branch", `func f(s *S, c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return
	}
	_ = s.n
	s.mu.Unlock()
}`, "held"},
		{"loop release fixpoint", `func f(s *S) {
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		_ = s.n // iteration 2 and later run unlocked
		s.mu.Unlock()
	}
}`, "unheld"},
		{"loop break", `func f(s *S, c bool) {
	s.mu.Lock()
	for {
		if c {
			s.mu.Unlock()
			break
		}
	}
	_ = s.n // the only exit is the unlocking break
}`, "unheld"},
		{"goroutine", `func f(s *S) {
	s.mu.Lock()
	go func() {
		_ = s.n
	}()
	_ = s.n
	s.mu.Unlock()
}`, "unheld held"},
		{"defer", `func f(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.n
}`, "held"},
		{"switch without default", `func f(s *S, x int) {
	switch x {
	case 1:
		s.mu.Lock()
	}
	_ = s.n
}`, "entry"},
		{"unreachable", `func f(s *S) {
	return
	_ = s.n
}`, "held"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", header+c.body, 0)
			if err != nil {
				t.Fatal(err)
			}
			info := newInfo()
			pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
			if err != nil {
				t.Fatal(err)
			}
			g := guard{pkg.Scope().Lookup("S").(*types.TypeName), "mu"}
			verdicts := map[[2]bool]string{{true, true}: "held", {false, true}: "entry", {false, false}: "unheld"}
			var got []string
			walkLocks(info, f.Decls[len(f.Decls)-1].(*ast.FuncDecl).Body, g, func(n ast.Node, st lockState) {
				if id, ok := n.(*ast.Ident); ok && id.Name == "n" {
					got = append(got, verdicts[[2]bool{st.holds(false), st.holds(true)}])
				}
			})
			if strings.Join(got, " ") != c.want {
				t.Errorf("accesses %q, want %q", got, c.want)
			}
		})
	}
}

// guard is one mutex: the named type that owns it and its field name. Lock
// state is tracked per guard, not per instance: the guarded structures are
// one per process, the usual guardedby trade-off.
type guard struct {
	owner *types.TypeName
	field string
}

// guardedBy returns, as "file:line:col: message" in source order, every
// access to an annotated field of pkg without its guard held on every path
// and every malformed annotation that no guardedby directive allows, then
// every guardedby directive that allowed nothing.
func guardedBy(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []string {
	allowedIn := map[string]allows{}
	for _, f := range files {
		allowedIn[fset.Position(f.Pos()).Filename], _ = parseAllows(fset, f)
	}
	type finding struct {
		pos token.Pos
		msg string
	}
	var found []finding
	report := func(pos token.Pos, msg string) {
		if p := fset.Position(pos); !allowedIn[p.Filename].allow("guardedby", p.Line) {
			found = append(found, finding{pos, msg})
		}
	}

	fields := annotations(pkg, files, info, report)
	guards := map[guard]bool{}
	for _, g := range fields {
		guards[g] = true
	}
	funcs := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					funcs[fn] = fd
				}
			}
		}
	}
	escaped := escapedFuncs(files, info, funcs)
	for g := range guards {
		checkGuard(info, funcs, g, fields, escaped, report)
	}

	sort.SliceStable(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	var out []string
	for _, f := range found {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(f.pos), f.msg))
	}
	for _, f := range files {
		out = append(out, allowedIn[fset.Position(f.Pos()).Filename].stale("guardedby", "suppresses no finding")...)
	}
	return out
}

// checkGuard walks every function for one guard, resolves which functions
// are only called with it held, and reports the accesses of its fields that
// are not held.
func checkGuard(info *types.Info, funcs map[*types.Func]*ast.FuncDecl, g guard, fields map[*types.Var]guard,
	escaped map[*types.Func]bool, report func(token.Pos, string)) {
	type access struct {
		fn    *types.Func
		pos   token.Pos
		field *types.Var
		st    lockState
	}
	type callsite struct {
		from *types.Func
		st   lockState
	}
	var accesses []access
	sites := map[*types.Func][]callsite{}
	for fn, fd := range funcs {
		walkLocks(info, fd.Body, g, func(node ast.Node, st lockState) {
			switch n := node.(type) {
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && fields[v] == g {
					accesses = append(accesses, access{fn, n.Pos(), v, st})
				}
			case *ast.CallExpr:
				if to := callee(info, n); funcs[to] != nil {
					sites[to] = append(sites[to], callsite{fn, st})
				}
			}
		})
	}

	// Greatest fixpoint: assume every eligible function is caller-held, then
	// strike any with a call site that does not hold the guard. Exported
	// functions and escaped function values have callers out of sight, so
	// they are never eligible.
	held := map[*types.Func]bool{}
	for fn := range funcs {
		held[fn] = len(sites[fn]) > 0 && !fn.Exported() && !escaped[fn]
	}
	entryHeld := func(fn *types.Func) bool { return isConstructor(fn.Name()) || held[fn] }
	for changed := true; changed; {
		changed = false
		for fn, ok := range held {
			if !ok {
				continue
			}
			for _, cs := range sites[fn] {
				if !cs.st.holds(entryHeld(cs.from)) {
					held[fn], changed = false, true
					break
				}
			}
		}
	}

	for _, a := range accesses {
		if !isConstructor(a.fn.Name()) && !a.st.holds(entryHeld(a.fn)) {
			report(a.pos, fmt.Sprintf("field %s is guarded by %s.%s but accessed in %s without it held on every path: lock (%s).%s, or ensure every caller of %s holds it",
				a.field.Name(), g.owner.Name(), g.field, a.fn.Name(), g.owner.Name(), g.field, a.fn.Name()))
		}
	}
}

// isConstructor reports whether a function is named as a constructor, which
// runs before the value escapes to another goroutine.
func isConstructor(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

// escapedFuncs finds the indexed functions whose value is taken other than
// as the callee of a direct call (callbacks, stored handlers, method values)
// or that a go statement starts: any of them may run with an unknowable lock
// state.
func escapedFuncs(files []*ast.File, info *types.Info, funcs map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	callees := map[*ast.Ident]bool{}
	escaped := map[*types.Func]bool{}
	for _, f := range files {
		// Inspect visits a call before the identifier naming its callee.
		ast.Inspect(f, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.CallExpr:
				callees[calleeIdent(n)] = true
			case *ast.GoStmt:
				if fn := callee(info, n.Call); funcs[fn] != nil {
					escaped[fn] = true
				}
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok && !callees[n] && funcs[fn] != nil {
					escaped[fn] = true
				}
			}
			return true
		})
	}
	return escaped
}

// calleeIdent is the identifier naming a call's function, nil when the
// function is a computed value.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// callee is the function or method a call names, nil when it is dynamic.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := info.Uses[calleeIdent(call)].(*types.Func)
	return fn
}

// annotations maps each annotated field of the package's top-level struct
// types to its guard, reporting the annotations that name no mutex.
func annotations(pkg *types.Package, files []*ast.File, info *types.Info, report func(token.Pos, string)) map[*types.Var]guard {
	out := map[*types.Var]guard{}
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				owner, _ := info.Defs[ts.Name].(*types.TypeName)
				if !ok || owner == nil {
					continue
				}
				for _, field := range st.Fields.List {
					ref, ok := fieldAnnotation(field)
					if !ok {
						continue
					}
					g, err := resolveGuard(pkg, owner, ref)
					if err != "" {
						report(field.Pos(), fmt.Sprintf("malformed //%s annotation: %s", guardPrefix, err))
						continue
					}
					for _, name := range field.Names {
						if v, ok := info.Defs[name].(*types.Var); ok {
							out[v] = g
						}
					}
				}
			}
		}
	}
	return out
}

// fieldAnnotation returns the mutex reference of a field's guardedby
// annotation, in its doc or line comment; prose after it is ignored.
func fieldAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := directive(c, guardPrefix); ok {
				if ref := strings.Fields(rest); len(ref) > 0 {
					return ref[0], true
				}
				return "", true
			}
		}
	}
	return "", false
}

// resolveGuard turns an annotation's reference, on a field of the struct
// type sibling, into its guard, or says why it names no mutex.
func resolveGuard(pkg *types.Package, sibling *types.TypeName, ref string) (guard, string) {
	if ref == "" {
		return guard{}, "empty mutex reference; want <mu> or <Type>.<mu>"
	}
	owner, field := sibling, ref
	if typeName, name, ok := strings.Cut(ref, "."); ok {
		if owner, _ = pkg.Scope().Lookup(typeName).(*types.TypeName); owner == nil {
			return guard{}, fmt.Sprintf("type %s not found in package %s", typeName, pkg.Name())
		}
		field = name
	}
	if st, ok := owner.Type().Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			if f := st.Field(i); f.Name() == field && (isTypeIn(f.Type(), "sync", "Mutex") || isTypeIn(f.Type(), "sync", "RWMutex")) {
				return guard{owner, field}, ""
			}
		}
	}
	return guard{}, fmt.Sprintf("%s has no sync.Mutex/RWMutex field %q", owner.Name(), field)
}

// isTypeIn reports whether t, through pointers and aliases, is the named
// type name declared in the package path.
func isTypeIn(t types.Type, path, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

// namedType unwraps pointers and aliases down to the named type, nil when
// there is none.
func namedType(t types.Type) *types.Named {
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

// lockState is what the lock walk knows of one guard at one point of a
// function body, relative to function entry. The walk is intra-procedural
// and flow-sensitive over the AST, so a caller-sensitive verdict is a pure
// function of the entry assumption (holds), which lets checkGuard walk each
// function once and resolve its callers afterwards.
type lockState struct {
	must   bool // locked on every path from entry to here
	killed bool // unlocked on some path from entry to here
	dead   bool // no path reaches here (after a return, panic or branch)
}

// holds resolves the entry assumption: the guard is held here if it was
// locked on every path since entry, or held at entry and never released.
// Unreachable code cannot race.
func (s lockState) holds(entryHeld bool) bool {
	return s.dead || s.must || (entryHeld && !s.killed)
}

// deadState is the "no paths yet" identity of merge.
var deadState = lockState{dead: true}

// merge joins two path states: must survives only on both, killed taints on
// either, and a dead path contributes nothing.
func merge(a, b lockState) lockState {
	if a.dead {
		return b
	}
	if b.dead {
		return a
	}
	return lockState{must: a.must && b.must, killed: a.killed || b.killed}
}

// lockWalker walks one function body for one guard. Known, deliberate
// approximations, all conservative for the repository's code: deferred
// unlocks do not kill (the lock is held until return); loop bodies are
// walked twice so a release inside the loop is seen by the next iteration;
// labeled branches and goto taint every enclosing statement; dynamic
// dispatch is not followed. One is not conservative: the clause after a
// fallthrough starts from the switch's entry state, not the fallthrough's.
type lockWalker struct {
	info  *types.Info
	g     guard
	visit func(ast.Node, lockState)
	ctxs  []*branchCtx // the enclosing breakable statements
}

// branchCtx gathers the states at the unlabeled breaks, and for a loop the
// continues, that target one enclosing statement.
type branchCtx struct {
	loop      bool
	brk, cont lockState
}

// walkLocks calls visit for every expression node of body, in evaluation
// order, with the lock state there. A function literal starts from the state
// where it is created, except one started by go: a new goroutine never
// inherits the spawner's lock.
func walkLocks(info *types.Info, body *ast.BlockStmt, g guard, visit func(ast.Node, lockState)) {
	(&lockWalker{info: info, g: g, visit: visit}).stmts(body.List, lockState{})
}

// sub walks a function literal's body from st, with its own branch contexts.
func (w *lockWalker) sub(body *ast.BlockStmt, st lockState) {
	(&lockWalker{info: w.info, g: w.g, visit: w.visit}).stmts(body.List, lockState{must: st.must, killed: st.killed})
}

func (w *lockWalker) stmts(list []ast.Stmt, st lockState) lockState {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) lockState {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ExprStmt:
		return w.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st = w.expr(e, st)
		}
		for _, e := range s.Lhs {
			st = w.expr(e, st)
		}
		return st
	case *ast.IncDecStmt:
		return w.expr(s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						st = w.expr(e, st)
					}
				}
			}
		}
		return st
	case *ast.SendStmt:
		return w.expr(s.Chan, w.expr(s.Value, st))
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st = w.expr(e, st)
		}
		return deadState
	case *ast.BranchStmt:
		switch {
		case s.Label != nil || s.Tok == token.GOTO:
			for _, c := range w.ctxs {
				c.brk = merge(c.brk, st)
				if c.loop {
					c.cont = merge(c.cont, st)
				}
			}
		case s.Tok == token.BREAK:
			if c := w.innermost(false); c != nil {
				c.brk = merge(c.brk, st)
			}
		case s.Tok == token.CONTINUE:
			if c := w.innermost(true); c != nil {
				c.cont = merge(c.cont, st)
			}
		}
		return deadState
	case *ast.DeferStmt:
		w.deferred(s.Call, st)
		return st
	case *ast.GoStmt:
		w.spawned(s.Call, st)
		return st
	case *ast.IfStmt:
		st = w.expr(s.Cond, w.stmt(s.Init, st))
		out := w.stmt(s.Body, st)
		if s.Else != nil {
			return merge(out, w.stmt(s.Else, st))
		}
		return merge(out, st)
	case *ast.ForStmt:
		return w.loop(w.stmt(s.Init, st), func(entry lockState) lockState {
			entry = w.stmt(s.Body, w.expr(s.Cond, entry))
			return w.stmt(s.Post, entry)
		}, s.Cond == nil)
	case *ast.RangeStmt:
		return w.loop(w.expr(s.X, st), func(entry lockState) lockState {
			return w.stmt(s.Body, w.expr(s.Value, w.expr(s.Key, entry)))
		}, false)
	case *ast.SwitchStmt:
		return w.clauses(s.Body, w.expr(s.Tag, w.stmt(s.Init, st)), false)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, w.stmt(s.Assign, w.stmt(s.Init, st)), false)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st, true)
	}
	return st // nil, empty and anything else: no effect
}

// innermost is the nearest enclosing branch context, or loop when loopOnly.
func (w *lockWalker) innermost(loopOnly bool) *branchCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		if !loopOnly || w.ctxs[i].loop {
			return w.ctxs[i]
		}
	}
	return nil
}

// loop walks a loop body twice: the first walk, which visits nothing, finds
// what one iteration does to the state; the second starts from the pre-state
// merged with that, so an access in a later iteration is not credited with a
// lock the body itself released. mustIterate is set for `for {}`, which
// exits only through a break.
func (w *lockWalker) loop(pre lockState, body func(lockState) lockState, mustIterate bool) lockState {
	iterate := func(entry lockState) (lockState, *branchCtx) {
		c := &branchCtx{loop: true, brk: deadState, cont: deadState}
		w.ctxs = append(w.ctxs, c)
		out := body(entry)
		w.ctxs = w.ctxs[:len(w.ctxs)-1]
		return merge(out, c.cont), c
	}
	visit := w.visit
	w.visit = func(ast.Node, lockState) {}
	once, _ := iterate(pre)
	w.visit = visit
	out, c := iterate(merge(pre, once))
	if mustIterate {
		return c.brk
	}
	return merge(merge(pre, out), c.brk) // no iteration, some, or a break
}

// clauses walks the clauses of a switch, type switch or select, each from
// the entry state, and merges their ends and breaks. A switch without a
// default also falls through with the entry state; exhaustive is set for a
// select, which takes one clause or blocks forever.
func (w *lockWalker) clauses(body *ast.BlockStmt, st lockState, exhaustive bool) lockState {
	c := &branchCtx{brk: deadState}
	w.ctxs = append(w.ctxs, c)
	out := deadState
	for _, cl := range body.List {
		cst := st
		switch cl := cl.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cl.List == nil
			for _, e := range cl.List {
				cst = w.expr(e, cst)
			}
			out = merge(out, w.stmts(cl.Body, cst))
		case *ast.CommClause:
			out = merge(out, w.stmts(cl.Body, w.stmt(cl.Comm, cst)))
		}
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	if out = merge(out, c.brk); !exhaustive {
		out = merge(out, st)
	}
	return out
}

// expr walks one expression in evaluation order, visiting every node and
// applying the effect of locking or unlocking the guard.
func (w *lockWalker) expr(e ast.Expr, st lockState) lockState {
	if e == nil {
		return st
	}
	w.visit(e, st)
	switch e := e.(type) {
	case *ast.CallExpr:
		st = w.expr(e.Fun, st)
		for _, a := range e.Args {
			st = w.expr(a, st)
		}
		switch w.lockEffect(e) {
		case 1:
			st.must = true
		case -1:
			st.must, st.killed = false, true
		}
		return st
	case *ast.FuncLit:
		// The creation point's state is the best intra-procedural guess:
		// a closure called synchronously under the lock keeps it.
		w.sub(e.Body, st)
		return st
	case *ast.SelectorExpr:
		st = w.expr(e.X, st)
		w.visit(e.Sel, st)
		return st
	case *ast.ParenExpr:
		return w.expr(e.X, st)
	case *ast.UnaryExpr:
		return w.expr(e.X, st)
	case *ast.StarExpr:
		return w.expr(e.X, st)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, st)
	case *ast.BinaryExpr:
		return w.expr(e.Y, w.expr(e.X, st))
	case *ast.IndexExpr:
		return w.expr(e.Index, w.expr(e.X, st))
	case *ast.IndexListExpr:
		st = w.expr(e.X, st)
		for _, i := range e.Indices {
			st = w.expr(i, st)
		}
		return st
	case *ast.SliceExpr:
		return w.expr(e.Max, w.expr(e.High, w.expr(e.Low, w.expr(e.X, st))))
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			st = w.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		return w.expr(e.Value, w.expr(e.Key, st))
	}
	return st // identifiers, literals and types: visited, no effect
}

// deferred walks `defer f(args)`. The function value and the arguments are
// evaluated now, but the call's effect does not apply to the rest of the
// body: after a deferred Unlock the lock is held until return. The call and
// a deferred literal's body see {must at the defer, killed}: held at return
// only when provably held at the defer, which is exact for the usual
// `mu.Lock(); defer func() { ...; mu.Unlock() }()`.
func (w *lockWalker) deferred(call *ast.CallExpr, st lockState) {
	st = lockState{must: st.must, killed: true}
	w.visit(call, st)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.sub(lit.Body, st)
	} else {
		w.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

// spawned walks `go f(args)`: the arguments are evaluated by the spawner,
// but the call, and a spawned literal's body, run unheld for good.
func (w *lockWalker) spawned(call *ast.CallExpr, st lockState) {
	w.visit(call, lockState{killed: true})
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.sub(lit.Body, lockState{killed: true})
	} else {
		w.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

// lockEffect is 1 for x.<mu>.Lock() or RLock(), -1 for Unlock() or
// RUnlock(), where x's named type owns the guard <mu>, and 0 for any other
// call.
func (w *lockWalker) lockEffect(call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	effect := 0
	switch sel.Sel.Name {
	case "Lock", "RLock":
		effect = 1
	case "Unlock", "RUnlock":
		effect = -1
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if effect == 0 || !ok || inner.Sel.Name != w.g.field {
		return 0
	}
	if n := namedType(w.info.TypeOf(inner.X)); n == nil || n.Obj() != w.g.owner {
		return 0
	}
	return effect
}
