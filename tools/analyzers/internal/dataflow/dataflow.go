// Package dataflow is the lock analysis under the guardedby pass: an index
// of a package's top-level functions plus a per-function must-hold lock
// analysis.
//
// The lock analysis is deliberately intra-procedural and flow-sensitive over
// the AST, not an SSA CFG: for each statement it tracks, per guard, whether
// the mutex is provably held on every path from function entry (Must) and
// whether it was released on any path (Killed). A caller-sensitive verdict is
// then a pure function of the entry assumption: Holds(entry) = Must ||
// (entry && !Killed). That factorization lets guardedby run the walker once
// per function and resolve caller-holds propagation as a fixpoint over call
// sites afterwards.
//
// Known, deliberate approximations (all conservative for the repository's
// patterns): an RLock counts as held; deferred unlocks do not kill (the lock
// really is held until return); `go` literals start unheld; loop bodies are
// walked twice so a release inside the loop is seen by the next iteration;
// dynamic dispatch is not followed.
package dataflow

import (
	"go/ast"
	"go/types"
	"strings"
)

// Guard identifies one mutex: the named type owning the field and the field
// name, e.g. (Engine, "mu"). Lock state is tracked per guard, not per
// instance — the repository's guarded structures are effectively singletons
// per process, which is the usual guardedby trade-off.
type Guard struct {
	Owner *types.TypeName
	Field string
}

// State is the must-hold lattice value for one guard at one program point,
// relative to function entry.
type State struct {
	// Must: the guard is locked on every path from entry to this point.
	Must bool
	// Killed: the guard was unlocked on some path from entry to this point.
	Killed bool
	// Dead: no path reaches this point (after return/panic/branch).
	Dead bool
}

// Holds resolves the entry assumption: held here iff locked on every path
// since entry, or held at entry and never released since.
func (s State) Holds(entryHeld bool) bool {
	if s.Dead {
		return true // unreachable code cannot race
	}
	return s.Must || (entryHeld && !s.Killed)
}

// merge joins two path states: Must survives only on both, Killed taints on
// either, dead paths contribute nothing.
func merge(a, b State) State {
	if a.Dead {
		return b
	}
	if b.Dead {
		return a
	}
	return State{Must: a.Must && b.Must, Killed: a.Killed || b.Killed}
}

// deadState is the "no paths yet" identity for merge.
var deadState = State{Dead: true}

// walker runs the analysis for one guard over one function body.
type walker struct {
	info  *types.Info
	guard Guard
	visit func(ast.Node, State)
	// ctxs is the enclosing breakable/continuable statement stack.
	ctxs []*walkCtx
}

type walkCtx struct {
	isLoop bool
	brk    State // merged state of unlabeled breaks targeting this statement
	cont   State // merged state of unlabeled continues (loops only)
}

// WalkFunc runs the must-hold analysis for guard over body, calling visit for
// every expression node encountered, in evaluation order, with the state at
// that point. Function literals inherit the state at their creation point —
// except literals launched by `go`, which start permanently unheld (a new
// goroutine never inherits the spawner's lock).
func WalkFunc(info *types.Info, body *ast.BlockStmt, guard Guard, visit func(ast.Node, State)) {
	if body == nil {
		return
	}
	w := &walker{info: info, guard: guard, visit: visit}
	w.stmts(body.List, State{})
}

func (w *walker) stmts(list []ast.Stmt, st State) State {
	for _, s := range list {
		st = w.stmt(s, st)
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st State) State {
	if s == nil {
		return st
	}
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
		st = w.expr(s.Value, st)
		return w.expr(s.Chan, st)
	case *ast.LabeledStmt:
		// Labeled loops: treated like their unlabeled form; labeled
		// break/continue is handled conservatively in BranchStmt below.
		return w.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st = w.expr(e, st)
		}
		return deadState
	case *ast.BranchStmt:
		return w.branch(s, st)
	case *ast.DeferStmt:
		w.deferredCall(s.Call, st)
		return st
	case *ast.GoStmt:
		w.spawnedCall(s.Call, st)
		return st
	case *ast.IfStmt:
		st = w.stmt(s.Init, st)
		st = w.expr(s.Cond, st)
		thenOut := w.stmt(s.Body, st)
		elseOut := st
		if s.Else != nil {
			elseOut = w.stmt(s.Else, st)
		}
		return merge(thenOut, elseOut)
	case *ast.ForStmt:
		st = w.stmt(s.Init, st)
		return w.loop(st, func(entry State) State {
			entry = w.expr(s.Cond, entry)
			entry = w.stmt(s.Body, entry)
			return w.stmt(s.Post, entry)
		}, s.Cond == nil)
	case *ast.RangeStmt:
		st = w.expr(s.X, st)
		return w.loop(st, func(entry State) State {
			if s.Key != nil {
				entry = w.expr(s.Key, entry)
			}
			if s.Value != nil {
				entry = w.expr(s.Value, entry)
			}
			return w.stmt(s.Body, entry)
		}, false)
	case *ast.SwitchStmt:
		st = w.stmt(s.Init, st)
		if s.Tag != nil {
			st = w.expr(s.Tag, st)
		}
		return w.cases(s.Body, st)
	case *ast.TypeSwitchStmt:
		st = w.stmt(s.Init, st)
		st = w.stmt(s.Assign, st)
		return w.cases(s.Body, st)
	case *ast.SelectStmt:
		return w.selectStmt(s, st)
	default:
		// EmptyStmt and anything exotic: no effect.
		return st
	}
}

// branch handles break/continue/goto/fallthrough. Unlabeled break/continue
// feeds the innermost matching context; anything labeled (or goto) is treated
// conservatively by tainting the whole enclosing stack.
func (w *walker) branch(s *ast.BranchStmt, st State) State {
	switch s.Tok.String() {
	case "break":
		if s.Label == nil {
			if c := w.innermost(false); c != nil {
				c.brk = merge(c.brk, st)
			}
		} else {
			w.taintAll(st)
		}
		return deadState
	case "continue":
		if s.Label == nil {
			if c := w.innermost(true); c != nil {
				c.cont = merge(c.cont, st)
			}
		} else {
			w.taintAll(st)
		}
		return deadState
	case "goto":
		w.taintAll(st)
		return deadState
	default: // fallthrough: next clause sees this state; approximated by merge in cases()
		return deadState
	}
}

func (w *walker) innermost(loopOnly bool) *walkCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		if !loopOnly || w.ctxs[i].isLoop {
			return w.ctxs[i]
		}
	}
	return nil
}

// taintAll merges st into every enclosing break/continue accumulator — the
// sound fallback for control flow the walker does not model precisely.
func (w *walker) taintAll(st State) {
	for _, c := range w.ctxs {
		c.brk = merge(c.brk, st)
		if c.isLoop {
			c.cont = merge(c.cont, st)
		}
	}
}

// loop walks a loop body twice: the first walk discovers what one iteration
// does to the lock state, the second walks with the fixpoint entry (pre-state
// merged with one-iteration-out) so accesses in iteration N>1 are not
// credited with a lock the body itself released. mustIterate is true for
// `for {}` — the loop never falls through, so only break states exit.
func (w *walker) loop(pre State, body func(State) State, mustIterate bool) State {
	// Discovery walk: no visits recorded, just the one-iteration transfer.
	saved := w.visit
	w.visit = func(ast.Node, State) {}
	w.ctxs = append(w.ctxs, &walkCtx{isLoop: true, brk: deadState, cont: deadState})
	probe := w.ctxs[len(w.ctxs)-1]
	out1 := body(pre)
	out1 = merge(out1, probe.cont)
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	w.visit = saved

	entry := merge(pre, out1)
	w.ctxs = append(w.ctxs, &walkCtx{isLoop: true, brk: deadState, cont: deadState})
	c := w.ctxs[len(w.ctxs)-1]
	out := body(entry)
	out = merge(out, c.cont)
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	if mustIterate {
		return c.brk // for{} exits only via break (or never)
	}
	// Zero iterations (pre), N iterations (out), or break.
	return merge(merge(pre, out), c.brk)
}

// cases walks switch/type-switch clause bodies: each clause starts from the
// switch-entry state, the result is the merge of every clause plus entry when
// no default exists. Unlabeled break inside a clause targets the switch.
func (w *walker) cases(body *ast.BlockStmt, st State) State {
	w.ctxs = append(w.ctxs, &walkCtx{isLoop: false, brk: deadState})
	c := w.ctxs[len(w.ctxs)-1]
	out := deadState
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cst := st
		for _, e := range cc.List {
			cst = w.expr(e, cst)
		}
		out = merge(out, w.stmts(cc.Body, cst))
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	out = merge(out, c.brk)
	if !hasDefault {
		out = merge(out, st)
	}
	return out
}

func (w *walker) selectStmt(s *ast.SelectStmt, st State) State {
	w.ctxs = append(w.ctxs, &walkCtx{isLoop: false, brk: deadState})
	c := w.ctxs[len(w.ctxs)-1]
	out := deadState
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		cst := st
		if cc.Comm != nil {
			cst = w.stmt(cc.Comm, cst)
		}
		out = merge(out, w.stmts(cc.Body, cst))
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	out = merge(out, c.brk)
	if len(s.Body.List) == 0 {
		out = deadState // select{} blocks forever
	}
	return out
}

// expr walks one expression in evaluation order, visiting every node and
// applying lock/unlock effects of guard-mutex calls.
func (w *walker) expr(e ast.Expr, st State) State {
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
		case effectLock:
			st.Must = true
		case effectUnlock:
			st.Must = false
			st.Killed = true
		}
		return st
	case *ast.FuncLit:
		// The literal's body runs with whatever the call site provides; the
		// creation-point state is the best intra-procedural approximation
		// (closures invoked synchronously under the lock keep it; closures
		// registered unheld start unheld).
		sub := &walker{info: w.info, guard: w.guard, visit: w.visit}
		sub.stmts(e.Body.List, State{Must: st.Must, Killed: st.Killed})
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
	case *ast.BinaryExpr:
		st = w.expr(e.X, st)
		return w.expr(e.Y, st)
	case *ast.IndexExpr:
		st = w.expr(e.X, st)
		return w.expr(e.Index, st)
	case *ast.IndexListExpr:
		st = w.expr(e.X, st)
		for _, i := range e.Indices {
			st = w.expr(i, st)
		}
		return st
	case *ast.SliceExpr:
		st = w.expr(e.X, st)
		st = w.expr(e.Low, st)
		st = w.expr(e.High, st)
		return w.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			st = w.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		st = w.expr(e.Key, st)
		return w.expr(e.Value, st)
	default:
		// Ident, literals, type expressions: visited above, no sub-effects.
		return st
	}
}

// deferredCall evaluates a `defer f(args)`: the function value and arguments
// are evaluated now (visited with the current state), but the call's
// lock/unlock effect does not apply to the remainder of the body — a deferred
// Unlock means the lock IS held until return. The call node itself and a
// deferred literal's body are walked with {Must: st.Must, Killed: true}: held
// at return only when provably held at the defer point, which is exact for
// the dominant `mu.Lock(); defer func(){ ...; mu.Unlock() }()` shape and
// conservative when the body also releases inline.
func (w *walker) deferredCall(call *ast.CallExpr, st State) {
	st = State{Must: st.Must, Killed: true}
	w.visit(call, st)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		sub := &walker{info: w.info, guard: w.guard, visit: w.visit}
		sub.stmts(lit.Body.List, State{Must: st.Must, Killed: st.Killed})
	} else {
		w.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

// spawnedCall evaluates a `go f(args)`: arguments evaluate in the spawner,
// but the new goroutine never inherits the spawner's lock — the call node is
// visited permanently unheld (so call-site propagation sees an unheld entry)
// and a spawned literal's body starts permanently unheld too.
func (w *walker) spawnedCall(call *ast.CallExpr, st State) {
	w.visit(call, State{Killed: true})
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		sub := &walker{info: w.info, guard: w.guard, visit: w.visit}
		sub.stmts(lit.Body.List, State{Killed: true})
	} else {
		w.expr(call.Fun, st)
	}
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

type lockEffectKind int

const (
	effectNone lockEffectKind = iota
	effectLock
	effectUnlock
)

// lockEffect classifies a call as an acquisition or release of the walker's
// guard: x.<field>.Lock() / RLock() / Unlock() / RUnlock() where x's named
// type is the guard owner.
func (w *walker) lockEffect(call *ast.CallExpr) lockEffectKind {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return effectNone
	}
	var kind lockEffectKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = effectLock
	case "Unlock", "RUnlock":
		kind = effectUnlock
	default:
		return effectNone
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != w.guard.Field {
		return effectNone
	}
	tv, ok := w.info.Types[inner.X]
	if !ok {
		return effectNone
	}
	if named := namedType(tv.Type); named != nil && named.Obj() == w.guard.Owner {
		return kind
	}
	return effectNone
}

// namedType unwraps pointers and aliases down to the named type.
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

// FuncNode is one top-level function declaration.
type FuncNode struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// Funcs indexes the top-level functions of one package.
type Funcs struct {
	Nodes []*FuncNode
	Index map[*types.Func]*FuncNode
}

// IndexFuncs indexes every top-level function with a body in files.
func IndexFuncs(files []*ast.File, info *types.Info) *Funcs {
	fs := &Funcs{Index: map[*types.Func]*FuncNode{}}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				n := &FuncNode{Decl: fd, Obj: obj}
				fs.Nodes = append(fs.Nodes, n)
				fs.Index[obj] = n
			}
		}
	}
	return fs
}

// IsConstructor reports whether a function name follows the repository's
// constructor convention (New*, new*): construction happens before the value
// escapes to other goroutines, so guarded-field checks exempt those bodies.
func IsConstructor(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}
