package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BufPool enforces the wire buffer pool's ownership contract (wire/pool.go,
// DESIGN.md §3.9): on every control-flow path, a wire.GetBuffer result
// bound to a variable must
//
//   - be released with wire.PutBuffer,
//   - be handed to a documented ownership-transfer call (a function whose
//     doc comment carries swarmlint:owns-buffer),
//   - escape the function (returned — a named result by a bare return
//     too — stored, sent, or captured by a closure or goroutine), or
//   - carry a // swarmlint:owns-buffer annotation at the call site.
//
// It runs on the ownership engine (ownership.go), so it proves release
// on every path: a buffer released on the error branch and leaked on
// the fall-through is a finding. A PutBuffer of a buffer the path has already released is a
// double put: the pool would hand it to two owners.
//
// A GetBuffer result that is not bound to a variable is checked where
// it stands: discarded, assigned to _, or passed to a call that does
// not take ownership is a guaranteed leak; returned, stored in a
// composite, or passed to an owning call is not.
type BufPool struct {
	// wirePath is the import path of the package declaring
	// GetBuffer/PutBuffer.
	wirePath string
}

// NewBufPool returns the buffer-ownership analyzer for the pool
// declared in the package at wirePath.
func NewBufPool(wirePath string) *BufPool { return &BufPool{wirePath: wirePath} }

// Name implements Analyzer.
func (*BufPool) Name() string { return "bufpool" }

// Doc implements Analyzer.
func (*BufPool) Doc() string {
	return "wire.GetBuffer results must reach PutBuffer, an ownership-transfer call, or escape"
}

// Run implements Analyzer.
func (b *BufPool) Run(p *Package) []Diagnostic { return checkOwnership(p, b) }

// getBuffer returns the wire.GetBuffer call e evaluates to, seen
// through parens, slicing and indexing, or nil. A call site annotated
// swarmlint:owns-buffer is not tracked.
func (b *BufPool) getBuffer(p *Package, e ast.Expr) *ast.CallExpr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			if !isFunc(p.Info, x, b.wirePath, "GetBuffer") || p.Annotations().onLine(x.Pos(), DirectiveOwnsBuffer) {
				return nil
			}
			return x
		default:
			return nil
		}
	}
}

// acquire interprets the assignment of rhs to lhs at pos (lhs is nil
// for an expression statement) and reports whether it handled the
// statement: a GetBuffer result bound to a
// function-local variable is tracked; one bound to nothing or to _ is
// reported; one stored in a field, element or outer variable escapes.
func (b *BufPool) acquire(h *ownFlow, st *flowState, lhs, rhs []ast.Expr, pos token.Pos) bool {
	handled := false
	for i, r := range rhs {
		call := b.getBuffer(h.p, r)
		if call == nil {
			continue
		}
		handled = true
		switch {
		case i >= len(lhs):
			h.report(call.Pos(), "wire.GetBuffer result discarded: guaranteed pool leak")
		case isBlank(lhs[i]):
			h.report(call.Pos(), "wire.GetBuffer result discarded (assigned to _): guaranteed pool leak")
		default:
			if v := h.identVar(lhs[i]); v != nil {
				h.track(st, v, pos)
			}
		}
	}
	return handled
}

// call checks that a GetBuffer result passed straight to a call is
// passed to one that takes ownership; it never finishes the call's
// interpretation, so it reports false.
func (b *BufPool) call(h *ownFlow, _ *flowState, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if get := b.getBuffer(h.p, a); get != nil && !b.transfers(h, call) {
			h.report(get.Pos(), "wire.GetBuffer result passed to a call that does not take ownership; bind it to a variable and release it, or annotate the callee with "+DirectiveOwnsBuffer)
		}
	}
	return false
}

// release returns the variable call releases — wire.PutBuffer(v), v
// possibly re-sliced — or nil.
func (b *BufPool) release(h *ownFlow, call *ast.CallExpr) *types.Var {
	if !isFunc(h.p.Info, call, b.wirePath, "PutBuffer") || len(call.Args) != 1 {
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	for {
		s, ok := arg.(*ast.SliceExpr)
		if !ok {
			return h.identVar(arg)
		}
		arg = ast.Unparen(s.X)
	}
}

// transfers reports whether passing a buffer to call hands it over:
// wire.PutBuffer itself, or a same-package callee whose doc carries
// swarmlint:owns-buffer.
func (b *BufPool) transfers(h *ownFlow, call *ast.CallExpr) bool {
	return isFunc(h.p.Info, call, b.wirePath, "PutBuffer") || h.p.Annotations().calleeHas(h.p.Info, call, DirectiveOwnsBuffer)
}

// leak words the finding for v still held at some exit (maybe: not at
// every exit).
func (b *BufPool) leak(v *types.Var, maybe bool) string {
	if maybe {
		return fmt.Sprintf("wire.GetBuffer result %q does not reach wire.PutBuffer, an ownership-transfer call, or an escape on every path; add one or annotate with %s", v.Name(), DirectiveOwnsBuffer)
	}
	return fmt.Sprintf("wire.GetBuffer result %q never reaches wire.PutBuffer, an ownership-transfer call, or an escape; add one or annotate with %s", v.Name(), DirectiveOwnsBuffer)
}

// double words a second release of v.
func (b *BufPool) double(v *types.Var) string {
	return fmt.Sprintf("double wire.PutBuffer of %q: the pool would hand the same buffer to two owners", v.Name())
}
