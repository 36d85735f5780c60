package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the ownership engine: the flow-walker hooks shared by
// the analyzers whose obligation is "every acquired value is
// discharged on every control-flow path". A discipline says what
// acquires an obligation, what releases it and which calls take it
// over; the engine does the rest. A value is discharged when it is
// released, returned (a named result by a bare return too), stored
// (assignment, composite literal, field, map, channel send), handed to
// a goroutine, captured by a function literal, or passed to a call the
// discipline accepts as a transfer. Nil refinement keeps error paths
// quiet: on an `err != nil` branch of the acquiring call, or a
// `v == nil` branch, nothing is held. A release of a value the path has
// already released is a double release.

// discipline is one ownership rule on the engine (refcount, bufpool).
type discipline interface {
	Name() string
	// acquire interprets the assignment of rhs to lhs at pos (lhs is
	// nil for an expression statement), tracking what it acquires, and
	// reports whether it handled the statement.
	acquire(h *ownFlow, st *flowState, lhs, rhs []ast.Expr, pos token.Pos) bool
	// call interprets a discipline-specific call and reports whether
	// the call needs no further interpretation.
	call(h *ownFlow, st *flowState, call *ast.CallExpr) bool
	// release returns the variable call releases, or nil.
	release(h *ownFlow, call *ast.CallExpr) *types.Var
	// transfers reports whether passing an owned value to call hands
	// the obligation over.
	transfers(h *ownFlow, call *ast.CallExpr) bool
	// leak words the finding for a value still held at some exit (maybe:
	// not at every exit); double words a second release.
	leak(v *types.Var, maybe bool) string
	double(v *types.Var) string
}

// checkOwnership walks every function of p under discipline d.
func checkOwnership(p *Package, d discipline) []Diagnostic {
	var diags []Diagnostic
	eachFunc(p, func(ft *ast.FuncType, body *ast.BlockStmt) {
		h := &ownFlow{
			d:        d,
			p:        p,
			body:     body,
			lo:       ft.Pos(),
			hi:       body.End(),
			acquires: make(map[*types.Var]token.Pos),
			errBuddy: make(map[*types.Var][]*types.Var),
			source:   make(map[*types.Var]*types.Var),
		}
		if ft.Results != nil {
			for _, fld := range ft.Results.List {
				for _, name := range fld.Names {
					h.results = append(h.results, varOf(p.Info, name))
				}
			}
		}
		var exits *flowState // every exit's state, merged
		walkFlow(body, p.Info, h, func(st *flowState, _ ast.Node) { exits = mergeFlow(exits, st.clone()) })
		for v, pos := range h.acquires {
			if exits != nil && exits.Get(v).held() {
				h.report(pos, d.leak(v, exits.Get(v) == flowMaybeHeld))
			}
		}
		diags = append(diags, h.diags...)
	})
	return diags
}

// ownFlow is the engine's flowHooks implementation for one function.
type ownFlow struct {
	d       discipline
	p       *Package
	body    *ast.BlockStmt
	lo, hi  token.Pos    // the analyzed function's extent: vars outside are free
	results []*types.Var // named results: a bare return hands them to the caller

	acquires map[*types.Var]token.Pos    // tracked var -> acquisition site
	errBuddy map[*types.Var][]*types.Var // error var -> values from the same call
	source   map[*types.Var]*types.Var   // extracted var -> container element var
	diags    []Diagnostic
}

// report records one finding at pos.
func (h *ownFlow) report(pos token.Pos, msg string) {
	h.diags = append(h.diags, h.p.diag(pos, h.d.Name(), msg))
}

// Transfer implements flowHooks.
func (h *ownFlow) Transfer(st *flowState, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		h.assign(st, s.Lhs, s.Rhs, s.Pos())
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					var lhs []ast.Expr
					for _, name := range vs.Names {
						lhs = append(lhs, name)
					}
					h.assign(st, lhs, vs.Values, vs.Pos())
				}
			}
		}
	case *ast.ExprStmt:
		if !h.d.acquire(h, st, nil, []ast.Expr{s.X}, s.Pos()) {
			h.calls(st, s.X)
		}
	case *ast.ReturnStmt:
		h.calls(st, s)
		for _, r := range s.Results {
			h.markOwnedMentions(st, r)
		}
		if len(s.Results) == 0 {
			for _, v := range h.results {
				h.discharge(st, v)
			}
		}
	case *ast.SendStmt:
		h.calls(st, s)
		h.markOwnedMentions(st, s.Value)
	case *ast.GoStmt:
		// The goroutine takes the value with it: any mention (even a
		// field read) hands it to concurrent code we trust to discharge
		// it.
		h.calls(st, s.Call)
		h.markAllMentions(st, s.Call)
	default:
		h.calls(st, stmt)
	}
	// A function literal anywhere in the statement captures what it
	// mentions: the closure owns (or borrows beyond our sight) the value.
	ast.Inspect(stmt, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			h.markAllMentions(st, lit.Body)
			return false
		}
		return true
	})
}

// Eval implements flowHooks: calls in a condition, tag or range operand
// act as they would in a statement.
func (h *ownFlow) Eval(st *flowState, e ast.Expr) { h.calls(st, e) }

// calls interprets every call in n, outermost first, leaving function
// literals (analyzed as functions of their own) alone.
func (h *ownFlow) calls(st *flowState, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			h.Call(st, m)
		}
		return true
	})
}

// Call implements flowHooks: the effect of one call expression, direct
// or replayed from a defer.
func (h *ownFlow) Call(st *flowState, call *ast.CallExpr) {
	if h.d.call(h, st, call) {
		return
	}
	if v := h.d.release(h, call); v != nil {
		if st.Get(v) == flowReleased {
			h.report(call.Pos(), h.d.double(v))
		}
		st.Set(v, flowReleased)
		return
	}
	// A deferred function literal discharges what it mentions.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		h.markAllMentions(st, lit.Body)
		return
	}
	if isBuiltinCall(h.p.Info, call, "panic") || !h.d.transfers(h, call) {
		return
	}
	// Passing the value (or, to a same-package call, its source
	// container element) transfers the obligation.
	samePkg := h.samePackageCallee(call)
	for _, arg := range call.Args {
		for v := range h.acquires {
			if !st.Get(v).held() {
				continue
			}
			if src := h.source[v]; mentionsOwned(h.p.Info, arg, v) || (src != nil && samePkg && mentions(h.p.Info, arg, src)) {
				st.Set(v, flowDone)
			}
		}
	}
}

// Refine implements flowHooks: nil and error-branch narrowing.
func (h *ownFlow) Refine(st *flowState, cond ast.Expr, truth bool) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			h.Refine(st, c.X, !truth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				h.Refine(st, c.X, true)
				h.Refine(st, c.Y, true)
			}
		case token.LOR:
			if !truth {
				h.Refine(st, c.X, false)
				h.Refine(st, c.Y, false)
			}
		case token.EQL, token.NEQ:
			id, isNilCmp := nilComparand(h.p.Info, c)
			if !isNilCmp {
				return
			}
			v := h.identVar(id)
			if v == nil {
				return
			}
			isNil := (c.Op == token.EQL) == truth
			if _, tracked := h.acquires[v]; tracked && isNil {
				// The acquiring call returned nil: nothing was acquired.
				st.Set(v, flowNone)
				return
			}
			// err != nil on the acquiring call's error: the convention is
			// error => nothing handed out.
			if buddies, ok := h.errBuddy[v]; ok && !isNil {
				for _, b := range buddies {
					if st.Get(b).held() {
						st.Set(b, flowNone)
					}
				}
			}
		}
	}
}

// track begins tracking v as held, remembering the acquisition site.
func (h *ownFlow) track(st *flowState, v *types.Var, pos token.Pos) {
	if _, ok := h.acquires[v]; !ok {
		h.acquires[v] = pos
	}
	st.Set(v, flowHeld)
}

// discharge marks a held tracked value as handed off.
func (h *ownFlow) discharge(st *flowState, v *types.Var) {
	if st.Get(v).held() {
		st.Set(v, flowDone)
	}
}

// assign interprets one assignment: an acquisition, else calls on the
// right-hand side, then stores of tracked values somewhere new
// (anything but a self-reassignment or _), then v = nil.
func (h *ownFlow) assign(st *flowState, lhs, rhs []ast.Expr, pos token.Pos) {
	if h.d.acquire(h, st, lhs, rhs, pos) {
		return
	}
	for _, r := range rhs {
		h.calls(st, r)
	}
	for i, r := range rhs {
		for v := range h.acquires {
			if !mentionsOwned(h.p.Info, r, v) {
				continue
			}
			// v = v[:n] keeps ownership in place, and _ = v discards
			// nothing: neither is an escape.
			if i < len(lhs) && (h.identVar(lhs[i]) == v || isBlank(lhs[i])) {
				continue
			}
			h.discharge(st, v)
		}
	}
	// v = nil drops the binding.
	for i, l := range lhs {
		v := h.identVar(l)
		if _, tracked := h.acquires[v]; tracked && i < len(rhs) && isNilIdent(ast.Unparen(rhs[i])) {
			st.Set(v, flowNone)
		}
	}
}

// markOwnedMentions discharges tracked values the expression mentions as
// whole values (returns, sends).
func (h *ownFlow) markOwnedMentions(st *flowState, e ast.Expr) {
	for v := range h.acquires {
		if mentionsOwned(h.p.Info, e, v) {
			h.discharge(st, v)
		}
	}
}

// markAllMentions discharges tracked values on any mention at all
// (goroutines, captured closures: the value left our sight).
func (h *ownFlow) markAllMentions(st *flowState, n ast.Node) {
	for v := range h.acquires {
		if st.Get(v).held() && mentions(h.p.Info, n, v) {
			st.Set(v, flowDone)
		}
	}
}

// samePackageCallee reports whether call resolves to a function declared
// in the analyzed package (an ownership-transfer candidate).
func (h *ownFlow) samePackageCallee(call *ast.CallExpr) bool {
	fn, ok := calleeObject(h.p.Info, call).(*types.Func)
	return ok && fn.Pkg() == h.p.Types
}

// identVar resolves a plain identifier expression to its variable whose
// declaration lies inside the analyzed function (parameters, results,
// and locals — not free variables of an enclosing function), else nil.
func (h *ownFlow) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v := varOf(h.p.Info, id)
	if v == nil || v.Pos() < h.lo || v.Pos() > h.hi {
		return nil // free variable of an enclosing function
	}
	return v
}

// mentions reports whether n references v.
func mentions(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == v || info.Defs[id] == v) {
			found = true
		}
		return !found
	})
	return found
}

// mentionsOwned reports whether expr mentions v as a whole value — the
// identifier itself, &v, v inside a composite literal, or an index or
// slice base — but NOT a field read v.f, which borrows rather than
// owns, nor a call argument: calls are interpreted on their own.
func mentionsOwned(info *types.Info, expr ast.Expr, v *types.Var) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] == v || info.Defs[e] == v
	case *ast.UnaryExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.StarExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if mentionsOwned(info, el, v) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		return mentionsOwned(info, e.Value, v)
	case *ast.IndexExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.SliceExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.BinaryExpr:
		return mentionsOwned(info, e.X, v) || mentionsOwned(info, e.Y, v)
	}
	return false
}

// nilComparand returns the identifier compared against nil in a binary
// == / != expression, if either side is the nil identifier.
func nilComparand(info *types.Info, b *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNilIdent(x) {
		if id, ok := y.(*ast.Ident); ok {
			return id, true
		}
		return nil, false
	}
	if isNilIdent(y) {
		if id, ok := x.(*ast.Ident); ok {
			return id, true
		}
	}
	return nil, false
}

// rootIdentVar walks selector/index/star chains down to the base
// identifier's variable: el.Value -> el. Used to record the container
// element a refcounted value was extracted from.
func rootIdentVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return varOf(info, x)
		default:
			return nil
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return strings.TrimPrefix(t.String(), "untyped ") == "error" || types.Identical(t, types.Universe.Lookup("error").Type())
}
