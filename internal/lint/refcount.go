package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// RefCount enforces the reference-count discipline the serving tier's
// extent cache introduced (DESIGN.md §3.13): an object whose lifetime
// is a reference count (server.Extent — pooled buffer shared between
// cache residency and in-flight responses) must have every acquired
// reference discharged on *every* control-flow path, including error
// returns. It generalizes bufpool's ownership tracking from exclusively
// owned buffers to refcounted objects, and unlike bufpool it is flow
// sensitive: built on the shared flow walker, it proves release on all
// paths rather than at least one.
//
// A function acquires a reference when:
//
//   - it calls a function documented swarmlint:returns-ref and binds the
//     refcounted result (the accessor convention: the callee hands the
//     caller a reference it must discharge);
//   - it bumps the count itself: v.<field>.Add(n) or .Store(n) with a
//     positive constant on a refcounted value;
//   - it extracts a refcounted value from a container element
//     (el.Value.(*T)) in a function that also removes entries from a
//     container (delete(...) or x.Remove(...)): unlinking the entry
//     orphans the container's reference, which the extractor now owns.
//
// A reference is discharged when the value reaches v.Release() (direct
// or deferred), is returned, stored (assignment, composite literal,
// field, map, channel send), handed to a goroutine, captured by a
// function literal, or passed — itself or its source container element —
// to a same-package call (ownership transfer, as in bufpool). Nil
// refinement keeps error paths quiet: on an `err != nil` branch of the
// acquiring call, or a `v == nil` branch, no reference is held.
//
// The analyzer also audits release hooks: a struct field of refcounted
// type declared in a checked package must have some method in the
// package that releases it (the wire.PayloadReleaser pattern —
// cachedReadResponse.ReleasePayload dropping its extent), or carry
// swarmlint:refcount-ok explaining who releases it.
type RefCount struct {
	// typeNames holds "importpath.TypeName" of the refcounted types.
	typeNames map[string]bool
}

// NewRefCount returns the refcount analyzer for the named types (each
// "importpath.TypeName").
func NewRefCount(typeNames []string) *RefCount {
	m := make(map[string]bool, len(typeNames))
	for _, n := range typeNames {
		m[n] = true
	}
	return &RefCount{typeNames: m}
}

// Name implements Analyzer.
func (*RefCount) Name() string { return "refcount" }

// Doc implements Analyzer.
func (*RefCount) Doc() string {
	return "acquired references on refcounted objects reach Release (or escape) on every control-flow path"
}

// isRefcounted reports whether t (after unwrapping pointers) is one of
// the configured refcounted types.
func (rc *RefCount) isRefcounted(t types.Type) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return rc.typeNames[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
}

// Run implements Analyzer.
func (rc *RefCount) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, fn := range functionsIn(f) {
			body := FuncBody(fn)
			if body == nil {
				continue
			}
			diags = append(diags, rc.checkFunc(p, fn, body)...)
		}
	}
	diags = append(diags, rc.checkReleaseHooks(p)...)
	return diags
}

// functionsIn returns every FuncDecl and FuncLit in f, each analyzed as
// its own function (a literal's acquisitions are its own obligations).
func functionsIn(f *ast.File) []ast.Node {
	var out []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n)
			}
		case *ast.FuncLit:
			out = append(out, n)
		}
		return true
	})
	return out
}

// checkFunc runs the flow walker over one function body.
func (rc *RefCount) checkFunc(p *Package, fn ast.Node, body *ast.BlockStmt) []Diagnostic {
	h := &refcountFlow{
		rc:       rc,
		p:        p,
		lo:       fn.Pos(),
		hi:       fn.End(),
		removes:  containsRemoval(body),
		acquires: make(map[*types.Var]token.Pos),
		errBuddy: make(map[*types.Var][]*types.Var),
		source:   make(map[*types.Var]*types.Var),
		reported: make(map[*types.Var]bool),
	}
	walkFlow(body, p.Info, h, func(st *flowState, at ast.Node) {
		for v, status := range st.vars {
			if status != flowHeld && status != flowMaybeHeld {
				continue
			}
			if h.reported[v] {
				continue
			}
			h.reported[v] = true
			qualifier := "not released"
			if status == flowMaybeHeld {
				qualifier = "not released on every path"
			}
			h.diags = append(h.diags, Diagnostic{
				Pos: p.Fset.Position(h.acquires[v]),
				Message: fmt.Sprintf("reference %q acquired here is %s: every path must reach Release() or hand the reference off (or annotate with %s)",
					v.Name(), qualifier, DirectiveRefcountOK),
				Analyzer: rc.Name(),
			})
		}
	})
	return h.diags
}

// containsRemoval reports whether body directly removes entries from a
// container: a delete(...) call or a .Remove(...) method call. Such a
// function owns the references of the entries it unlinks.
func containsRemoval(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "delete" {
				found = true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Remove" {
				found = true
			}
		}
		return !found
	})
	return found
}

// refcountFlow is the refcount analyzer's flowHooks implementation for
// one function.
type refcountFlow struct {
	rc      *RefCount
	p       *Package
	lo, hi  token.Pos // the analyzed function's extent: vars outside are free
	removes bool

	acquires map[*types.Var]token.Pos    // tracked var -> acquisition site
	errBuddy map[*types.Var][]*types.Var // error var -> refs from the same call
	source   map[*types.Var]*types.Var   // extracted var -> container element var
	reported map[*types.Var]bool
	diags    []Diagnostic
}

// Transfer implements flowHooks.
func (h *refcountFlow) Transfer(st *flowState, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if h.acquisition(st, s.Lhs, s.Rhs, s.Pos()) {
			return
		}
		h.escapeAssign(st, s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var lhs []ast.Expr
				for _, name := range vs.Names {
					lhs = append(lhs, name)
				}
				if h.acquisition(st, lhs, vs.Values, vs.Pos()) {
					continue
				}
				h.escapeAssign(st, lhs, vs.Values)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			h.Call(st, call)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			h.markOwnedMentions(st, r)
		}
	case *ast.SendStmt:
		h.markOwnedMentions(st, s.Value)
	case *ast.GoStmt:
		// The goroutine takes the reference with it: any mention (even a
		// field read) hands the object to concurrent code we trust to
		// discharge it.
		h.markAllMentions(st, s.Call)
	case *ast.RangeStmt:
		// Ranging does not consume; nested statements arrive separately.
		return
	}
	// A function literal anywhere in the statement captures what it
	// mentions: the closure owns (or borrows beyond our sight) the ref.
	if stmt != nil {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				h.markAllMentions(st, lit.Body)
				return false
			}
			return true
		})
	}
}

// Call implements flowHooks: the effect of one call expression, direct
// or replayed from a defer.
func (h *refcountFlow) Call(st *flowState, call *ast.CallExpr) {
	// v.Release(): the canonical discharge.
	if v := h.releaseTarget(call); v != nil {
		if _, tracked := h.acquires[v]; tracked {
			st.Set(v, flowDone)
		}
		return
	}
	// v.<refs>.Add(n) / .Store(n): manual count manipulation.
	if v, delta := h.countManipulation(call); v != nil {
		if delta > 0 {
			h.track(st, v, call.Pos())
		} else if _, tracked := h.acquires[v]; tracked {
			st.Set(v, flowDone)
		}
		return
	}
	// A deferred function literal discharges what it mentions.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		h.markAllMentions(st, lit.Body)
		return
	}
	if isPanic(h.p.Info, call) {
		return
	}
	// Passing the value (or its source container element) to a
	// same-package call transfers the reference, bufpool-style.
	samePkg := h.samePackageCallee(call)
	for _, arg := range call.Args {
		for v := range h.acquires {
			if st.Get(v) != flowHeld && st.Get(v) != flowMaybeHeld {
				continue
			}
			if mentionsOwned(h.p.Info, arg, v) {
				st.Set(v, flowDone)
				continue
			}
			if src := h.source[v]; src != nil && samePkg && mentions(h.p.Info, arg, src) {
				st.Set(v, flowDone)
			}
		}
	}
}

// Refine implements flowHooks: nil and error-branch narrowing.
func (h *refcountFlow) Refine(st *flowState, cond ast.Expr, truth bool) {
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
				// The acquiring call returned nil: no reference exists.
				st.Set(v, flowNone)
				return
			}
			// err != nil on the acquiring call's error: the convention is
			// error => no reference handed out.
			if buddies, ok := h.errBuddy[v]; ok && !isNil {
				for _, b := range buddies {
					if st.Get(b) == flowHeld || st.Get(b) == flowMaybeHeld {
						st.Set(b, flowNone)
					}
				}
			}
		}
	}
}

// acquisition recognizes the acquiring assignment forms and returns
// true when it handled the statement.
func (h *refcountFlow) acquisition(st *flowState, lhs, rhs []ast.Expr, pos token.Pos) bool {
	if len(rhs) != 1 {
		return false
	}
	switch r := ast.Unparen(rhs[0]).(type) {
	case *ast.CallExpr:
		if !h.p.Annotations().calleeHas(h.p.Info, r, DirectiveReturnsRef) {
			return false
		}
		if h.p.Annotations().onLine(pos, DirectiveRefcountOK) {
			return true
		}
		var acquired []*types.Var
		var errVars []*types.Var
		for _, l := range lhs {
			v := h.identVar(l)
			if v == nil {
				continue
			}
			if h.rc.isRefcounted(v.Type()) {
				h.track(st, v, pos)
				acquired = append(acquired, v)
			} else if isErrorType(v.Type()) {
				errVars = append(errVars, v)
			}
		}
		for _, e := range errVars {
			h.errBuddy[e] = append(h.errBuddy[e], acquired...)
		}
		return len(acquired) > 0
	case *ast.TypeAssertExpr:
		if !h.removes || !h.rc.isRefcounted(h.p.Info.TypeOf(r)) {
			return false
		}
		if h.p.Annotations().onLine(pos, DirectiveRefcountOK) {
			return true
		}
		if len(lhs) == 0 {
			return false
		}
		v := h.identVar(lhs[0])
		if v == nil {
			return false
		}
		h.track(st, v, pos)
		if src := rootIdentVar(h.p.Info, r.X); src != nil {
			h.source[v] = src
		}
		return true
	}
	return false
}

// track begins tracking v as held, remembering the acquisition site.
func (h *refcountFlow) track(st *flowState, v *types.Var, pos token.Pos) {
	if _, ok := h.acquires[v]; !ok {
		h.acquires[v] = pos
	}
	st.Set(v, flowHeld)
}

// escapeAssign discharges tracked values that an assignment stores
// somewhere new (anything but a self-reassignment).
func (h *refcountFlow) escapeAssign(st *flowState, lhs, rhs []ast.Expr) {
	for i, r := range rhs {
		for v := range h.acquires {
			if st.Get(v) != flowHeld && st.Get(v) != flowMaybeHeld {
				continue
			}
			if !mentionsOwned(h.p.Info, r, v) {
				continue
			}
			// v = v (re-slice etc.) keeps ownership in place, and
			// _ = v discards nothing: neither is an escape.
			if i < len(lhs) {
				if lv := h.identVar(lhs[i]); lv == v {
					continue
				}
				if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
			}
			st.Set(v, flowDone)
		}
	}
	// v = nil drops the binding.
	for i, l := range lhs {
		v := h.identVar(l)
		if v == nil {
			continue
		}
		if _, tracked := h.acquires[v]; !tracked {
			continue
		}
		if i < len(rhs) {
			if id, ok := ast.Unparen(rhs[i]).(*ast.Ident); ok && id.Name == "nil" {
				st.Set(v, flowNone)
			}
		}
	}
	// Calls on the right-hand side still transfer their arguments.
	for _, r := range rhs {
		ast.Inspect(r, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				h.Call(st, call)
			}
			return true
		})
	}
}

// markOwnedMentions discharges tracked values the expression mentions as
// whole values (returns, sends, stores).
func (h *refcountFlow) markOwnedMentions(st *flowState, e ast.Expr) {
	if e == nil {
		return
	}
	for v := range h.acquires {
		if st.Get(v) != flowHeld && st.Get(v) != flowMaybeHeld {
			continue
		}
		if mentionsOwned(h.p.Info, e, v) {
			st.Set(v, flowDone)
		}
	}
}

// markAllMentions discharges tracked values on any mention at all
// (goroutines, captured closures: the value left our sight).
func (h *refcountFlow) markAllMentions(st *flowState, n ast.Node) {
	for v := range h.acquires {
		if st.Get(v) != flowHeld && st.Get(v) != flowMaybeHeld {
			continue
		}
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && (h.p.Info.Uses[id] == v || h.p.Info.Defs[id] == v) {
				found = true
			}
			return !found
		})
		if found {
			st.Set(v, flowDone)
		}
	}
}

// releaseTarget returns the tracked variable v when call is v.Release().
func (h *refcountFlow) releaseTarget(call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	v := h.identVar(sel.X)
	if v == nil || !h.rc.isRefcounted(v.Type()) {
		return nil
	}
	return v
}

// countManipulation recognizes v.<field>.Add(c) / v.<field>.Store(c) on
// a refcounted v with a constant argument, returning v and the sign of
// the manipulation (+1 acquire, -1 release). Returns (nil, 0) otherwise.
func (h *refcountFlow) countManipulation(call *ast.CallExpr) (*types.Var, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Store") || len(call.Args) != 1 {
		return nil, 0
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	v := h.identVar(inner.X)
	if v == nil || !h.rc.isRefcounted(v.Type()) {
		return nil, 0
	}
	tv, ok := h.p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return nil, 0
	}
	if constant.Sign(tv.Value) > 0 {
		return v, 1
	}
	return v, -1
}

// samePackageCallee reports whether call resolves to a function declared
// in the analyzed package (an ownership-transfer candidate).
func (h *refcountFlow) samePackageCallee(call *ast.CallExpr) bool {
	fn, ok := calleeObject(h.p.Info, call).(*types.Func)
	return ok && fn.Pkg() == h.p.Types
}

// identVar resolves a plain identifier expression to its variable whose
// declaration lies inside the analyzed function (parameters, results,
// and locals — not free variables of an enclosing function), else nil.
func (h *refcountFlow) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var v *types.Var
	if d, ok := h.p.Info.Defs[id].(*types.Var); ok {
		v = d
	} else if u, ok := h.p.Info.Uses[id].(*types.Var); ok {
		v = u
	}
	if v == nil {
		return nil
	}
	if v.Pos() < h.lo || v.Pos() > h.hi {
		return nil // free variable of an enclosing function
	}
	return v
}

// checkReleaseHooks audits struct fields of refcounted type: some method
// in the package must release them (the PayloadReleaser pattern), or the
// field carries swarmlint:refcount-ok.
func (rc *RefCount) checkReleaseHooks(p *Package) []Diagnostic {
	type hookField struct {
		name string
		pos  token.Pos
		obj  *types.Var
	}
	var fields []hookField
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stct, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range stct.Fields.List {
				t := p.Info.TypeOf(fld.Type)
				if t == nil || !rc.isRefcounted(t) {
					continue
				}
				// Only pointer/named fields count: the refcounted type's
				// own internals (its counter) are not hook sites.
				for _, name := range fld.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					fields = append(fields, hookField{name: name.Name, pos: name.Pos(), obj: v})
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		return nil
	}
	// Collect "<x>.<field>.Release()" call sites anywhere in the package.
	released := make(map[string]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Release" {
				return true
			}
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				released[inner.Sel.Name] = true
			}
			return true
		})
	}
	ann := p.Annotations()
	var diags []Diagnostic
	for _, fld := range fields {
		if released[fld.name] {
			continue
		}
		if ann.fieldHas(fld.obj, DirectiveRefcountOK) || ann.onLine(fld.pos, DirectiveRefcountOK) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos: p.Fset.Position(fld.pos),
			Message: fmt.Sprintf("struct field %q holds a refcounted reference but no method in this package releases it; add a release hook (wire.PayloadReleaser pattern) or annotate with %s",
				fld.name, DirectiveRefcountOK),
			Analyzer: rc.Name(),
		})
	}
	return diags
}

// mentionsOwned reports whether expr mentions v as a whole value — the
// identifier itself, &v, v inside a composite literal, call argument, or
// index base — but NOT a field read v.f, which borrows rather than owns.
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
	case *ast.CallExpr:
		for _, a := range e.Args {
			if mentionsOwned(info, a, v) {
				return true
			}
		}
	case *ast.IndexExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.SliceExpr:
		return mentionsOwned(info, e.X, v)
	case *ast.BinaryExpr:
		return mentionsOwned(info, e.X, v) || mentionsOwned(info, e.Y, v)
	case *ast.SelectorExpr:
		return false // v.f is a borrow, not a transfer
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
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return strings.TrimPrefix(t.String(), "untyped ") == "error" || types.Identical(t, types.Universe.Lookup("error").Type())
}
