package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces "guarded by <mu>" field comments: a struct field
// documented as guarded may only be accessed inside a function that
// lexically locks that mutex (x.<mu>.Lock() or x.<mu>.RLock(), deferred
// or not), is annotated swarmlint:locked, or follows the tree's older
// xxxLocked naming convention — both assert every caller holds the lock
// (the waitStoring/sealCurrentLocked pattern in the server store and
// client log).
//
// Two accesses are exempt without annotation:
//
//   - constructor initialization: accesses through a function-local
//     variable whose declaration initializes it from a composite
//     literal — the value is unpublished, so no lock can be needed;
//   - the lock statements themselves and accesses to the guard mutex.
//
// The check is lexical: it matches the mutex by its trailing name (the
// "mu" of s.mu), not by aliasing analysis, and it trusts that a lock
// appearing anywhere in the function covers the accesses. It exists to
// catch the easy, common failure — a new method touching guarded state
// with no locking at all — not to re-prove the race detector's job.
type GuardedBy struct{}

// NewGuardedBy returns the guarded-field analyzer.
func NewGuardedBy() *GuardedBy { return &GuardedBy{} }

// Name implements Analyzer.
func (*GuardedBy) Name() string { return "guardedby" }

// Doc implements Analyzer.
func (*GuardedBy) Doc() string {
	return `fields commented "guarded by <mu>" are only touched under that mutex or in swarmlint:locked functions`
}

// Run implements Analyzer.
func (g *GuardedBy) Run(p *Package) []Diagnostic {
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
			guard := ann.fieldGuard(fld)
			if guard == "" {
				return true
			}
			if g.accessOK(p, sel, guard) {
				return true
			}
			diags = append(diags, p.diag(sel.Sel.Pos(), g.Name(), fmt.Sprintf("field %q (guarded by %s) accessed without locking %s; lock it, or annotate the function with %s if callers hold it", fld.Name(), guard, guard, DirectiveLocked)))
			return true
		})
	}
	return diags
}

// accessOK reports whether the guarded-field access at sel is covered
// by a lock, an annotation, or an exemption.
func (g *GuardedBy) accessOK(p *Package, sel *ast.SelectorExpr, guard string) bool {
	// Accessing the guard through itself (s.mu.Lock() where mu is also a
	// guarded field of a parent struct) never needs the lock held.
	if sel.Sel.Name == guard {
		return true
	}
	ann := p.Annotations()
	for fn := p.EnclosingFunc(sel); fn != nil; fn = p.EnclosingFunc(fn) {
		if ann.funcHas(p.Info, fn, DirectiveLocked) {
			return true
		}
		// The tree's naming convention predates the annotation: a
		// xxxLocked method is documented as called with the lock held.
		if fd, ok := fn.(*ast.FuncDecl); ok && strings.HasSuffix(fd.Name.Name, "Locked") {
			return true
		}
		if body := FuncBody(fn); body != nil && locksMutex(p.Info, body, guard) {
			return true
		}
	}
	if p.EnclosingFunc(sel) == nil {
		return true // package-level composite literal: initialization
	}
	return constructorAccess(p, sel)
}

// locksMutex reports whether body contains a call <path>.<guard>.Lock()
// or .RLock(), plain or deferred. The mutex is matched by its final
// name component.
func locksMutex(info *types.Info, body *ast.BlockStmt, guard string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			mu, lock, ok := mutexOp(info, call)
			found = ok && lock && finalName(mu) == guard
		}
		return !found
	})
	return found
}

// mutexOp recognizes x.Lock() / x.RLock() (lock) and x.Unlock() /
// x.RUnlock() on a sync.Mutex or sync.RWMutex x, returning x.
func mutexOp(info *types.Info, call *ast.CallExpr) (mu ast.Expr, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 || !isMutexType(info.TypeOf(sel.X)) {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isMutexType(t types.Type) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// finalName returns the last identifier of an expression path ("mu" for
// s.mu, (&s.mu), or a bare mu), or "".
func finalName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return finalName(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return finalName(e.X)
		}
	case *ast.StarExpr:
		return finalName(e.X)
	}
	return ""
}

// constructorAccess reports whether sel's base is a function-local
// variable initialized from a composite literal in the same function —
// a value still private to its constructor. Shared by guardedby and
// atomicmix: both disciplines are void before the value is published.
func constructorAccess(p *Package, sel *ast.SelectorExpr) bool {
	root := ast.Unparen(sel.X)
	for {
		if inner, ok := root.(*ast.SelectorExpr); ok {
			root = ast.Unparen(inner.X)
			continue
		}
		break
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return false
	}
	v := varOf(p.Info, id)
	if v == nil {
		return false
	}
	owner := p.EnclosingFunc(sel)
	body := FuncBody(owner)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, l := range n.Lhs {
				lid, ok := l.(*ast.Ident)
				if !ok || p.Info.Defs[lid] != v || i >= len(n.Rhs) {
					continue
				}
				if isCompositeInit(n.Rhs[i]) {
					found = true
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if p.Info.Defs[name] != v || i >= len(n.Values) {
					continue
				}
				if isCompositeInit(n.Values[i]) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isCompositeInit reports whether e is a composite literal, optionally
// behind & or new-style helpers we can see through.
func isCompositeInit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}
