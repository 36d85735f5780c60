package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockIO flags blocking I/O performed while a mutex is held — the bug
// class the server store's group-commit refactor fixed, where an fsync
// under the metadata mutex convoyed every concurrent operation behind
// the disk. It is a hook on the flow walker (flow.go): each held mutex
// is flow state keyed by the locked expression ("s.mu"), set by
// x.Lock() / x.RLock() and cleared by x.Unlock() / x.RUnlock(); a
// deferred unlock holds the mutex to function end. A call is reported
// when a mutex is held, or held on some of the paths reaching it, and
// the call
//
//   - invokes a method on a type declared in the disk package (the
//     disk.Disk interface or any of its implementations),
//   - invokes any zero-argument method named Sync,
//   - invokes a blocking method on a net type (everything but Close and
//     the address accessors), or
//   - passes a net package value (e.g. a net.Conn) to another function,
//     which is how framed writes hide behind helpers like
//     wire.WriteRequest.
//
// Escape hatch: a mutex field annotated swarmlint:io-mutex exists to
// serialize I/O (connection write locks), so it is never tracked.
// Function literals are analyzed as functions of their own — a
// goroutine body runs after the spawning region ends.
//
// The analysis is intraprocedural: I/O reached through a same-package
// helper call is not traced.
type LockIO struct {
	// diskPath is the disk layer's import path. That package is the I/O
	// the locked regions must avoid, so it is not itself analyzed.
	diskPath string
}

// NewLockIO returns the lock-discipline analyzer for the disk layer at
// diskPath.
func NewLockIO(diskPath string) *LockIO { return &LockIO{diskPath: diskPath} }

// Name implements Analyzer.
func (*LockIO) Name() string { return "lockio" }

// Doc implements Analyzer.
func (*LockIO) Doc() string {
	return "no disk, fsync, or network I/O while holding a mutex"
}

// Run implements Analyzer.
func (l *LockIO) Run(p *Package) []Diagnostic {
	if p.Path == l.diskPath {
		return nil
	}
	h := &lockFlow{l: l, p: p, lockedAt: make(map[string]token.Pos)}
	eachFunc(p, func(_ *ast.FuncType, body *ast.BlockStmt) {
		walkFlow(body, p.Info, h, func(*flowState, ast.Node) {})
	})
	return h.diags
}

// lockFlow is lockio's flowHooks implementation.
type lockFlow struct {
	l        *LockIO
	p        *Package
	lockedAt map[string]token.Pos // where each mutex was last locked: messages name the innermost
	diags    []Diagnostic
}

// Transfer implements flowHooks.
func (h *lockFlow) Transfer(st *flowState, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && h.lockOp(st, call) {
			return
		}
	case *ast.GoStmt:
		// Only the call's arguments evaluate now; the call runs later.
		for _, a := range s.Call.Args {
			h.scan(st, a)
		}
		return
	}
	h.scan(st, stmt)
}

// Call implements flowHooks: a deferred call runs under the exit's
// state.
func (h *lockFlow) Call(st *flowState, call *ast.CallExpr) {
	if !h.lockOp(st, call) {
		h.scan(st, call)
	}
}

// Eval implements flowHooks.
func (h *lockFlow) Eval(st *flowState, e ast.Expr) { h.scan(st, e) }

// Refine implements flowHooks: conditions say nothing about locks.
func (h *lockFlow) Refine(*flowState, ast.Expr, bool) {}

// lockOp applies call to st when it locks or unlocks a mutex. Locks on
// mutexes annotated swarmlint:io-mutex are not tracked.
func (h *lockFlow) lockOp(st *flowState, call *ast.CallExpr) bool {
	mu, lock, ok := mutexOp(h.p.Info, call)
	switch {
	case !ok:
		return false
	case !lock:
		st.Set(exprString(mu), flowDone)
	case !h.l.ioExemptMutex(h.p, mu):
		st.Set(exprString(mu), flowHeld)
		h.lockedAt[exprString(mu)] = call.Pos()
	}
	return true
}

// holding returns the most recently locked mutex that st holds, or
// may hold, or "".
func (h *lockFlow) holding(st *flowState) string {
	var held string
	var at token.Pos
	for k, status := range st.vars {
		if path, ok := k.(string); ok && status.held() && h.lockedAt[path] > at {
			held, at = path, h.lockedAt[path]
		}
	}
	return held
}

// scan reports the I/O calls in n when st holds a mutex, skipping
// function literals (they run later, possibly unlocked).
func (h *lockFlow) scan(st *flowState, n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		reason := h.l.ioReason(h.p, call)
		if reason == "" {
			return true
		}
		if held := h.holding(st); held != "" {
			h.diags = append(h.diags, h.p.diag(call.Pos(), h.l.Name(), fmt.Sprintf("%s while holding %s; release the lock first", reason, held)))
		}
		return true
	})
}

// ioExemptMutex reports whether the locked expression resolves to a
// struct field annotated swarmlint:io-mutex.
func (l *LockIO) ioExemptMutex(p *Package, mutexExpr ast.Expr) bool {
	fld := fieldOf(p.Info, mutexExpr)
	return fld != nil && p.Annotations().fieldHas(fld, DirectiveIOMutex)
}

// netAddrMethods are net methods that do not block on the network.
var netAddrMethods = map[string]bool{
	"Close": true, "LocalAddr": true, "RemoteAddr": true,
	"Addr": true, "String": true, "Network": true,
}

// ioReason classifies call as I/O, returning a description or "".
func (l *LockIO) ioReason(p *Package, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := p.Info.Selections[sel]; s != nil { // a method call
			recv := s.Recv()
			switch {
			case typeFromPkg(recv, l.diskPath):
				return fmt.Sprintf("disk I/O (%s.%s)", namedOrPointee(recv).Obj().Name(), sel.Sel.Name)
			case sel.Sel.Name == "Sync" && len(call.Args) == 0:
				return "fsync (Sync call)"
			case typeFromPkg(recv, "net") && !netAddrMethods[sel.Sel.Name]:
				return fmt.Sprintf("network I/O (%s.%s)", namedOrPointee(recv).Obj().Name(), sel.Sel.Name)
			}
		}
	}
	// A function that receives a net value (e.g. wire.WriteRequest(conn,
	// ...)) is doing network I/O on the caller's behalf.
	if _, builtin := calleeObject(p.Info, call).(*types.Builtin); builtin {
		return ""
	}
	for _, a := range call.Args {
		if t := p.Info.TypeOf(a); t != nil && typeFromPkg(t, "net") {
			return fmt.Sprintf("network I/O (passes %s)", namedOrPointee(t).Obj().Name())
		}
	}
	return ""
}
