package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// This file is the lint suite's one flow walker: a small symbolic
// executor over Go's structured control flow. Two analyzers are hooks
// on it: bufpool through the ownership engine (ownership.go), and
// lockio, whose state is the set of held mutexes.
// It is deliberately not a real CFG library. Go bodies in this tree are
// structured — if/else, loops, switch, select, defer, early returns —
// so an AST-directed walk with explicit state merging at joins covers
// the control flow that matters, at a fraction of the machinery:
//
//   - every branch of an if/switch/select is walked with its own copy
//     of the abstract state, and the copies are merged at the join;
//   - conditions, switch tags and range operands are evaluated under
//     the state of the path that reaches them;
//   - loop bodies are walked once (no fixpoint): a fact that must hold
//     per-iteration is checked within the iteration, and the
//     zero-iteration path merges back in;
//   - defers are recorded per path and replayed (innermost first) at
//     every exit — a return, or falling off the end of the body —
//     before the exit callback runs;
//   - a path ending in panic() vanishes instead of reaching the exit
//     callback: obligations do not survive the process.
//
// Unsupported control flow is handled leniently, never unsoundly-loud:
// goto ends its path silently, labeled break/continue bind to the
// innermost construct. The walker's job is catching the easy, common
// defect with zero false positives: a path that loses what it must
// discharge, or reaches I/O with a mutex held.

// flowStatus is the abstract state of one tracked key.
type flowStatus uint8

const (
	// flowNone: no outstanding obligation (not acquired on this path,
	// or refined away by a nil/error check).
	flowNone flowStatus = iota
	// flowDone: the obligation was discharged — returned, stored, or
	// transferred.
	flowDone
	// flowReleased: discharged by the discipline's own release call, so
	// a second release on the same path is a double release.
	flowReleased
	// flowMaybeHeld: held on some paths into a join but not others.
	flowMaybeHeld
	// flowHeld: the obligation is outstanding.
	flowHeld
)

// held reports whether the obligation is, or may be, outstanding.
func (s flowStatus) held() bool { return s == flowHeld || s == flowMaybeHeld }

// flowState is one control-flow path's abstract state: a status per
// tracked key plus the defers registered so far on the path. A key is
// whatever the analyzer tracks: the ownership engine's *types.Var, or
// lockio's mutex path ("s.mu").
type flowState struct {
	live   bool
	vars   map[any]flowStatus
	defers []*ast.CallExpr
}

func newFlowState() *flowState {
	return &flowState{live: true, vars: make(map[any]flowStatus)}
}

func (s *flowState) clone() *flowState {
	c := &flowState{live: s.live, vars: make(map[any]flowStatus, len(s.vars))}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	c.defers = append(c.defers, s.defers...)
	return c
}

// Get returns k's status on this path.
func (s *flowState) Get(k any) flowStatus { return s.vars[k] }

// Set records k's status on this path.
func (s *flowState) Set(k any, st flowStatus) { s.vars[k] = st }

// mergeStatus joins two per-key statuses at a control-flow join.
func mergeStatus(a, b flowStatus) flowStatus {
	if a == b {
		return a
	}
	// Any disagreement that involves holding on one side means the
	// obligation is outstanding only conditionally.
	if a.held() || b.held() {
		return flowMaybeHeld
	}
	return flowDone // discharged on one path, never acquired (or discharged otherwise) on the other
}

// mergeFlow joins the states of two paths. Dead paths contribute
// nothing: merging with an unreachable state yields the other state.
func mergeFlow(a, b *flowState) *flowState {
	if a == nil || !a.live {
		if b == nil {
			return a
		}
		return b
	}
	if b == nil || !b.live {
		return a
	}
	out := &flowState{live: true, vars: make(map[any]flowStatus, len(a.vars))}
	for k, av := range a.vars {
		out.vars[k] = mergeStatus(av, b.vars[k])
	}
	for k, bv := range b.vars {
		if _, ok := a.vars[k]; !ok {
			out.vars[k] = mergeStatus(flowNone, bv)
		}
	}
	out.defers = append(out.defers, a.defers...)
	for _, d := range b.defers {
		if !slices.Contains(out.defers, d) {
			out.defers = append(out.defers, d)
		}
	}
	return out
}

// flowHooks supplies an analyzer's semantics to the walker.
type flowHooks interface {
	// Transfer interprets one non-control-flow statement (assignments,
	// expression statements, sends, declarations, go statements, and
	// the operand effects of return statements), mutating st.
	Transfer(st *flowState, stmt ast.Stmt)
	// Call interprets one deferred call when it is replayed at an exit.
	Call(st *flowState, call *ast.CallExpr)
	// Eval interprets an expression that control flow evaluates: an if
	// or loop condition, a switch tag, a range operand.
	Eval(st *flowState, e ast.Expr)
	// Refine narrows st given that cond evaluated to truth (the walker
	// calls it on both arms of every if and loop condition).
	Refine(st *flowState, cond ast.Expr, truth bool)
}

// eachFunc calls visit for every function in p: each FuncDecl with a
// body and each FuncLit, a literal analyzed as its own function.
func eachFunc(p *Package, visit func(ft *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Type, fn.Body)
			}
			return true
		})
	}
}

// flowWalker drives hooks over one function body.
type flowWalker struct {
	hooks  flowHooks
	onExit func(st *flowState, at ast.Node)
	info   *types.Info

	// breakable/continuable construct stacks: break targets the
	// innermost loop, switch, or select; continue the innermost loop.
	breaks    []*[]*flowState
	continues []*[]*flowState
}

// walkFlow symbolically executes body, invoking hooks on every
// statement and onExit (with defers already replayed) at every return
// and at the fall-off end of the body. info is used to recognize calls
// to the panic builtin.
func walkFlow(body *ast.BlockStmt, info *types.Info, hooks flowHooks, onExit func(st *flowState, at ast.Node)) {
	w := &flowWalker{hooks: hooks, onExit: onExit, info: info}
	st := newFlowState()
	w.walkStmt(st, body)
	if st.live {
		w.exit(st, body)
	}
}

// exit replays the path's defers innermost-first, then reports the exit.
func (w *flowWalker) exit(st *flowState, at ast.Node) {
	for i := len(st.defers) - 1; i >= 0; i-- {
		w.hooks.Call(st, st.defers[i])
	}
	w.onExit(st, at)
	st.live = false
}

func (w *flowWalker) walkStmt(st *flowState, s ast.Stmt) {
	if !st.live || s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, stmt := range s.List {
			if !st.live {
				return
			}
			w.walkStmt(st, stmt)
		}

	case *ast.ReturnStmt:
		w.hooks.Transfer(st, s)
		w.exit(st, s)

	case *ast.IfStmt:
		w.walkStmt(st, s.Init)
		if !st.live {
			return
		}
		w.hooks.Eval(st, s.Cond)
		thenSt := st.clone()
		w.hooks.Refine(thenSt, s.Cond, true)
		w.walkStmt(thenSt, s.Body)
		elseSt := st.clone()
		w.hooks.Refine(elseSt, s.Cond, false)
		if s.Else != nil {
			w.walkStmt(elseSt, s.Else)
		}
		*st = *mergeFlow(thenSt, elseSt)

	case *ast.ForStmt:
		w.walkStmt(st, s.Init)
		if !st.live {
			return
		}
		if s.Cond != nil {
			w.hooks.Eval(st, s.Cond)
		}
		w.loop(st, s.Cond, s.Cond != nil, s.Body, s.Post)

	case *ast.RangeStmt:
		w.hooks.Eval(st, s.X)
		w.loop(st, nil, true, s.Body, nil)

	case *ast.SwitchStmt:
		w.walkStmt(st, s.Init)
		if s.Tag != nil && st.live {
			w.hooks.Eval(st, s.Tag)
		}
		w.walkCases(st, s.Body)

	case *ast.TypeSwitchStmt:
		w.walkStmt(st, s.Init)
		w.walkStmt(st, s.Assign)
		w.walkCases(st, s.Body)

	case *ast.SelectStmt:
		w.walkCases(st, s.Body)

	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			if n := len(w.breaks); n > 0 {
				*w.breaks[n-1] = append(*w.breaks[n-1], st.clone())
			}
			st.live = false
		case "continue":
			if n := len(w.continues); n > 0 {
				*w.continues[n-1] = append(*w.continues[n-1], st.clone())
			}
			st.live = false
		case "goto":
			st.live = false // unsupported: the path ends silently, unreported
		case "fallthrough":
			// Handled structurally by walkCases; ending the path here
			// keeps the walker safe if one slips through.
			st.live = false
		}

	case *ast.DeferStmt:
		st.defers = append(st.defers, s.Call)

	case *ast.LabeledStmt:
		w.walkStmt(st, s.Stmt)

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isBuiltinCall(w.info, call, "panic") {
			w.hooks.Transfer(st, s)
			st.live = false // the path vanishes without an exit report
			return
		}
		w.hooks.Transfer(st, s)

	default: // assignments, sends, inc/dec, declarations, go statements
		w.hooks.Transfer(st, s)
	}
}

// loop walks a loop body once, with continues merging back at its end.
// The loop is left by every break and, when it can finish (a for with
// a condition, a range), by the condition's false arm on entry and
// after the body — for a range, zero iterations or more. A for without
// a condition is left only by a break.
func (w *flowWalker) loop(st *flowState, cond ast.Expr, finishes bool, body *ast.BlockStmt, post ast.Stmt) {
	var breaks, conts []*flowState
	w.breaks = append(w.breaks, &breaks)
	w.continues = append(w.continues, &conts)
	bodySt := st.clone()
	if cond != nil {
		w.hooks.Refine(bodySt, cond, true)
	}
	w.walkStmt(bodySt, body)
	for _, c := range conts {
		bodySt = mergeFlow(bodySt, c)
	}
	w.walkStmt(bodySt, post)
	w.breaks = w.breaks[:len(w.breaks)-1]
	w.continues = w.continues[:len(w.continues)-1]

	out := &flowState{live: false}
	if finishes {
		skip, after := st.clone(), bodySt
		if cond != nil {
			w.hooks.Refine(skip, cond, false)
			if after.live {
				after = after.clone()
				w.hooks.Refine(after, cond, false)
			}
		}
		out = mergeFlow(skip, after)
	}
	for _, b := range breaks {
		out = mergeFlow(out, b)
	}
	*st = *out
}

// walkCases walks a switch or select body. Each clause starts from a
// clone of the entry state. In a switch, fallthrough flows one clause's
// end state into the next, and without a default no case may match, so
// the entry state merges back in. Exactly one select clause runs.
func (w *flowWalker) walkCases(st *flowState, body *ast.BlockStmt) {
	if !st.live {
		return
	}
	var breaks []*flowState
	w.breaks = append(w.breaks, &breaks)
	entry := st.clone()
	out := &flowState{live: false}
	someClauseRuns := false // a default, or a select
	var fall *flowState     // state falling through from the previous clause
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			someClauseRuns = someClauseRuns || c.List == nil
			stmts = c.Body
		case *ast.CommClause:
			someClauseRuns = true
			stmts = append([]ast.Stmt{c.Comm}, c.Body...)
		}
		caseSt := mergeFlow(entry.clone(), fall)
		fall = nil
		for i, stmt := range stmts {
			if br, ok := stmt.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i == len(stmts)-1 {
				fall = caseSt
				break
			}
			w.walkStmt(caseSt, stmt)
		}
		if fall == nil {
			out = mergeFlow(out, caseSt)
		}
	}
	w.breaks = w.breaks[:len(w.breaks)-1]
	if !someClauseRuns {
		out = mergeFlow(out, entry)
	}
	out = mergeFlow(out, fall) // fallthrough on the last clause (illegal Go, but stay safe)
	for _, b := range breaks {
		out = mergeFlow(out, b)
	}
	*st = *out
}
