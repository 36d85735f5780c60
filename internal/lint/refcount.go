package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// RefCount enforces the reference-count discipline the serving tier's
// extent cache introduced (DESIGN.md §3.13): an object whose lifetime
// is a reference count (server.Extent — pooled buffer shared between
// cache residency and in-flight responses) must have every acquired
// reference discharged on *every* control-flow path, including error
// returns. It is bufpool's ownership tracking generalized from
// exclusively owned buffers to refcounted objects, on the same
// ownership engine.
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
// A reference is discharged as the ownership engine (ownership.go)
// defines it: released by v.Release() (direct or deferred), or handed
// off. Any call taking the value — or, for a same-package call, its
// source container element — takes the reference over. A second
// Release of a reference this path already released is reported.
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
	return &RefCount{typeNames: stringSet(typeNames)}
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
	return append(checkOwnership(p, rc), rc.checkReleaseHooks(p)...)
}

func (rc *RefCount) leak(v *types.Var, maybe bool) string {
	qualifier := "not released"
	if maybe {
		qualifier = "not released on every path"
	}
	return fmt.Sprintf("reference %q acquired here is %s: every path must reach Release() or hand the reference off (or annotate with %s)",
		v.Name(), qualifier, DirectiveRefcountOK)
}

func (rc *RefCount) double(v *types.Var) string {
	return fmt.Sprintf("reference %q released twice on this path: the count drops below the references still held", v.Name())
}

// transfers implements discipline: any call taking the reference
// takes it over.
func (rc *RefCount) transfers(*ownFlow, *ast.CallExpr) bool { return true }

// call implements discipline: v.<refs>.Add(n) / .Store(n), manual count
// manipulation, acquires (n > 0) or discharges a reference.
func (rc *RefCount) call(h *ownFlow, st *flowState, call *ast.CallExpr) bool {
	v, delta := rc.countManipulation(h, call)
	if v == nil {
		return false
	}
	if delta > 0 {
		h.track(st, v, call.Pos())
	} else if _, tracked := h.acquires[v]; tracked {
		st.Set(v, flowDone)
	}
	return true
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

// acquire implements discipline: the returns-ref accessor call, and a
// refcounted value extracted from a container element in a function
// that removes entries.
func (rc *RefCount) acquire(h *ownFlow, st *flowState, lhs, rhs []ast.Expr, pos token.Pos) bool {
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
			if rc.isRefcounted(v.Type()) {
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
		if !rc.isRefcounted(h.p.Info.TypeOf(r)) || !containsRemoval(h.body) {
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

// release implements discipline: v.Release().
func (rc *RefCount) release(h *ownFlow, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	v := h.identVar(sel.X)
	if v == nil || !rc.isRefcounted(v.Type()) {
		return nil
	}
	return v
}

// countManipulation recognizes v.<field>.Add(c) / v.<field>.Store(c) on
// a refcounted v with a constant argument, returning v and the sign of
// the manipulation (+1 acquire, -1 release). Returns (nil, 0) otherwise.
func (rc *RefCount) countManipulation(h *ownFlow, call *ast.CallExpr) (*types.Var, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Add" && sel.Sel.Name != "Store") || len(call.Args) != 1 {
		return nil, 0
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	v := h.identVar(inner.X)
	if v == nil || !rc.isRefcounted(v.Type()) {
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

// checkReleaseHooks audits struct fields of refcounted type: some method
// in the package must release them (the PayloadReleaser pattern), or the
// field carries swarmlint:refcount-ok.
func (rc *RefCount) checkReleaseHooks(p *Package) []Diagnostic {
	var fields []*ast.Ident
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
				fields = append(fields, fld.Names...)
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
		if released[fld.Name] {
			continue
		}
		if ann.fieldHas(varOf(p.Info, fld), DirectiveRefcountOK) || ann.onLine(fld.Pos(), DirectiveRefcountOK) {
			continue
		}
		diags = append(diags, p.diag(fld.Pos(), rc.Name(), fmt.Sprintf("struct field %q holds a refcounted reference but no method in this package releases it; add a release hook (wire.PayloadReleaser pattern) or annotate with %s",
			fld.Name, DirectiveRefcountOK)))
	}
	return diags
}
