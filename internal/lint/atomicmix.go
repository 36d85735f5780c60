package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix catches the half-atomic field: a struct field that some
// code accesses through sync/atomic (atomic.AddInt64(&s.n, 1)) and
// other code reads or writes plainly (s.n++, v := s.n). Mixed access is
// a data race the moment the plain side runs concurrently with the
// atomic side, and it is invisible to guardedby because there is no
// mutex to match against — the qos books and blockcache counters keep
// hot counters this way. Typed atomics
// (atomic.Int64 fields) are immune by construction — the type system
// forbids plain access — so the analyzer's scope is exactly the
// untyped-integer-plus-atomic-call pattern.
//
// Two plain accesses are exempt without annotation, mirroring
// guardedby: package-level initialization, and constructor access
// through a function-local composite-literal value that nothing else
// can see yet. Anything else needs swarmlint:atomic-ok on the line
// with a reason (e.g. a snapshot under a write-excluding lock).
type AtomicMix struct{}

// NewAtomicMix returns the mixed-atomic-access analyzer.
func NewAtomicMix() *AtomicMix { return &AtomicMix{} }

// Name implements Analyzer.
func (*AtomicMix) Name() string { return "atomicmix" }

// Doc implements Analyzer.
func (*AtomicMix) Doc() string {
	return "fields accessed via sync/atomic are never read or written plainly elsewhere"
}

// Run implements Analyzer.
func (am *AtomicMix) Run(p *Package) []Diagnostic {
	// Pass 1: every field that appears as &recv.field in a sync/atomic
	// call is an atomic field.
	atomicFields := make(map[*types.Var]token.Pos)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(p.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				if fld := fieldOf(p.Info, u.X); fld != nil {
					if _, seen := atomicFields[fld]; !seen {
						atomicFields[fld] = call.Pos()
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	// Pass 2: any other selector access to those fields is a plain
	// access unless it is itself the &field argument of an atomic call,
	// constructor initialization, or annotated.
	ann := p.Annotations()
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fld := fieldOf(p.Info, sel)
			if fld == nil {
				return true
			}
			if _, isAtomic := atomicFields[fld]; !isAtomic {
				return true
			}
			if am.atomicOperand(p, sel) {
				return true
			}
			if p.EnclosingFunc(sel) == nil {
				return true // package-level initialization
			}
			if constructorAccess(p, sel) {
				return true
			}
			if ann.onLine(sel.Pos(), DirectiveAtomicOK) {
				return true
			}
			diags = append(diags, p.diag(sel.Pos(), am.Name(), fmt.Sprintf("field %q is accessed with sync/atomic elsewhere but plainly here; use the atomic API or annotate with %s",
				fld.Name(), DirectiveAtomicOK)))
			return true
		})
	}
	return diags
}

// atomicOperand reports whether sel appears as the &operand of a
// sync/atomic call: parent chain sel -> &sel -> atomic.F(...).
func (am *AtomicMix) atomicOperand(p *Package, sel *ast.SelectorExpr) bool {
	u, ok := p.outerParent(sel).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	call, ok := p.outerParent(u).(*ast.CallExpr)
	return ok && isAtomicCall(p.Info, call)
}

// isAtomicCall reports whether call invokes a sync/atomic package
// function (LoadInt64, AddUint32, StorePointer, CompareAndSwap…).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic" && !strings.HasPrefix(fn.Name(), "_")
}

// fieldOf resolves a selector expression to the struct field it names,
// or nil for methods, package selectors, and non-field selections.
func fieldOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	fld, ok := s.Obj().(*types.Var)
	if !ok || !fld.IsField() {
		return nil
	}
	return fld
}
