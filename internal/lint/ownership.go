package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the ownership engine: bufpool's flow-walker hooks,
// whose obligation is "every acquired buffer is discharged on every
// control-flow path". BufPool says what acquires a buffer, what
// releases it and which calls take it over; the engine does the rest. A
// value is discharged when it is released, returned (a named result by
// a bare return too), stored (assignment, composite literal, field,
// map, channel send), handed to a goroutine, captured by a function
// literal, or passed to a call that takes ownership. Nil refinement
// keeps empty paths quiet: on a `v == nil` branch nothing is held. A
// release of a value the path has already released is a double release.

// checkOwnership walks every function of p under b's rules.
func checkOwnership(p *Package, b *BufPool) []Diagnostic {
	var diags []Diagnostic
	eachFunc(p, func(ft *ast.FuncType, body *ast.BlockStmt) {
		h := &ownFlow{
			b:        b,
			p:        p,
			body:     body,
			lo:       ft.Pos(),
			hi:       body.End(),
			acquires: make(map[*types.Var]token.Pos),
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
				h.report(pos, b.leak(v, exits.Get(v) == flowMaybeHeld))
			}
		}
		diags = append(diags, h.diags...)
	})
	return diags
}

// ownFlow is the engine's flowHooks implementation for one function.
type ownFlow struct {
	b       *BufPool
	p       *Package
	body    *ast.BlockStmt
	lo, hi  token.Pos    // the analyzed function's extent: vars outside are free
	results []*types.Var // named results: a bare return hands them to the caller

	acquires map[*types.Var]token.Pos // tracked var -> acquisition site
	diags    []Diagnostic
}

// report records one finding at pos.
func (h *ownFlow) report(pos token.Pos, msg string) {
	h.diags = append(h.diags, h.p.diag(pos, h.b.Name(), msg))
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
		if !h.b.acquire(h, st, nil, []ast.Expr{s.X}, s.Pos()) {
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
	if h.b.call(h, st, call) {
		return
	}
	if v := h.b.release(h, call); v != nil {
		if st.Get(v) == flowReleased {
			h.report(call.Pos(), h.b.double(v))
		}
		st.Set(v, flowReleased)
		return
	}
	// A deferred function literal discharges what it mentions.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		h.markAllMentions(st, lit.Body)
		return
	}
	if isBuiltinCall(h.p.Info, call, "panic") || !h.b.transfers(h, call) {
		return
	}
	// Passing the value transfers the obligation.
	for _, arg := range call.Args {
		h.markOwnedMentions(st, arg)
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
			if _, tracked := h.acquires[v]; tracked && (c.Op == token.EQL) == truth {
				// v is nil on this branch: nothing was acquired.
				st.Set(v, flowNone)
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
	if h.b.acquire(h, st, lhs, rhs, pos) {
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

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
