package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockIO flags blocking I/O performed while a mutex is lexically held —
// the bug class PR 4 fixed in the server store path, where an fsync
// under the metadata mutex convoyed every concurrent operation behind
// the disk. Within each function it tracks regions between x.Lock() /
// x.RLock() and the matching x.Unlock()/x.RUnlock() (a deferred unlock
// holds to function end) and reports calls in those regions that
//
//   - invoke a method on a type declared in the disk package (the
//     disk.Disk interface or any of its implementations),
//   - invoke any zero-argument method named Sync,
//   - invoke a blocking method on a net type (everything but Close and
//     the address accessors), or
//   - pass a net package value (e.g. a net.Conn) to another function,
//     which is how framed writes hide behind helpers like
//     wire.WriteRequest.
//
// Escape hatch: a mutex field annotated swarmlint:io-mutex exists to
// serialize I/O (connection write locks), so its regions are exempt.
// Function literals are not entered — a goroutine body runs after the
// spawning region ends.
//
// The analysis is lexical and intraprocedural: I/O reached through a
// same-package helper call is not traced, and a lock released in every
// branch of an if/else is conservatively still considered held after
// it.
type LockIO struct {
	diskPath string
	skip     map[string]bool
}

// NewLockIO returns the lock-discipline analyzer. diskPath is the
// import path of the disk layer; packages in skip (typically the disk
// layer itself, which is the I/O these regions must avoid) are not
// analyzed.
func NewLockIO(diskPath string, skip []string) *LockIO {
	m := make(map[string]bool, len(skip))
	for _, s := range skip {
		m[s] = true
	}
	return &LockIO{diskPath: diskPath, skip: m}
}

// Name implements Analyzer.
func (*LockIO) Name() string { return "lockio" }

// Doc implements Analyzer.
func (*LockIO) Doc() string {
	return "no disk, fsync, or network I/O while holding a mutex"
}

// Run implements Analyzer.
func (l *LockIO) Run(p *Package) []Diagnostic {
	if l.skip[p.Path] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			diags = append(diags, l.scanBlock(p, body.List, nil)...)
			return true // nested FuncLits are scanned as their own functions
		})
	}
	return diags
}

// heldLock is one mutex the current lexical region holds.
type heldLock struct {
	path string // source text of the mutex expression, e.g. "s.mu"
}

// scanBlock walks one statement list, tracking the held-lock stack.
// Nested blocks get a copy of the stack: their internal unlocks release
// only within them (an early-return unlock pattern), and conservatively
// the outer region stays held afterward.
func (l *LockIO) scanBlock(p *Package, stmts []ast.Stmt, held []heldLock) []Diagnostic {
	var diags []Diagnostic
	held = append([]heldLock(nil), held...)
	for _, stmt := range stmts {
		if path, kind := l.lockCall(p, stmt); path != "" {
			switch kind {
			case "lock":
				held = append(held, heldLock{path: path})
			case "unlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].path == path {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			continue
		}
		// A deferred unlock keeps the region held to function end, which
		// is the state we already model; nothing to do.
		if len(held) > 0 {
			diags = append(diags, l.scanStmt(p, stmt, held)...)
		} else {
			// No lock held at this level, but nested blocks may take one.
			diags = append(diags, l.scanNested(p, stmt, held)...)
		}
	}
	return diags
}

// lockCall classifies stmt as a mutex Lock/Unlock statement, returning
// the mutex expression text and "lock"/"unlock". Locks on mutexes
// annotated swarmlint:io-mutex return no path, so their regions are
// never tracked.
func (l *LockIO) lockCall(p *Package, stmt ast.Stmt) (path, kind string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", ""
	}
	if !isMutexType(p.Info.TypeOf(sel.X)) {
		return "", ""
	}
	if kind == "lock" && l.ioExemptMutex(p, sel.X) {
		return "", ""
	}
	return exprString(sel.X), kind
}

// ioExemptMutex reports whether the locked expression resolves to a
// struct field annotated swarmlint:io-mutex.
func (l *LockIO) ioExemptMutex(p *Package, mutexExpr ast.Expr) bool {
	sel, ok := ast.Unparen(mutexExpr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s := p.Info.Selections[sel]; s != nil {
		if v, ok := s.Obj().(*types.Var); ok {
			return p.Annotations().fieldHas(v, DirectiveIOMutex)
		}
	}
	return false
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

// scanStmt reports I/O calls in stmt while held is non-empty, handing
// nested statement lists to scanBlock with a copied stack.
func (l *LockIO) scanStmt(p *Package, stmt ast.Stmt, held []heldLock) []Diagnostic {
	var diags []Diagnostic
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return l.scanBlock(p, s.List, held)
	case *ast.IfStmt:
		diags = append(diags, l.scanExprs(p, held, s.Cond)...)
		if s.Init != nil {
			diags = append(diags, l.scanStmt(p, s.Init, held)...)
		}
		diags = append(diags, l.scanBlock(p, s.Body.List, held)...)
		if s.Else != nil {
			diags = append(diags, l.scanStmt(p, s.Else, held)...)
		}
		return diags
	case *ast.ForStmt:
		if s.Init != nil {
			diags = append(diags, l.scanStmt(p, s.Init, held)...)
		}
		diags = append(diags, l.scanExprs(p, held, s.Cond)...)
		if s.Post != nil {
			diags = append(diags, l.scanStmt(p, s.Post, held)...)
		}
		diags = append(diags, l.scanBlock(p, s.Body.List, held)...)
		return diags
	case *ast.RangeStmt:
		diags = append(diags, l.scanExprs(p, held, s.X)...)
		diags = append(diags, l.scanBlock(p, s.Body.List, held)...)
		return diags
	case *ast.SwitchStmt:
		if s.Init != nil {
			diags = append(diags, l.scanStmt(p, s.Init, held)...)
		}
		diags = append(diags, l.scanExprs(p, held, s.Tag)...)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				diags = append(diags, l.scanBlock(p, cc.Body, held)...)
			}
		}
		return diags
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				diags = append(diags, l.scanBlock(p, cc.Body, held)...)
			}
		}
		return diags
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if cc.Comm != nil {
					diags = append(diags, l.scanStmt(p, cc.Comm, held)...)
				}
				diags = append(diags, l.scanBlock(p, cc.Body, held)...)
			}
		}
		return diags
	case *ast.LabeledStmt:
		return l.scanStmt(p, s.Stmt, held)
	}
	// Leaf statement: inspect its expressions for I/O calls, skipping
	// function literals (they run later, possibly unlocked).
	return l.scanExprs(p, held, leafExprs(stmt)...)
}

// scanNested descends into compound statements looking for Lock regions
// when nothing is held at the current level.
func (l *LockIO) scanNested(p *Package, stmt ast.Stmt, held []heldLock) []Diagnostic {
	switch s := stmt.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		return l.scanStmt(p, s, held)
	}
	return nil
}

// leafExprs extracts the expressions evaluated by a simple statement.
func leafExprs(stmt ast.Stmt) []ast.Expr {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{s.X}
	case *ast.AssignStmt:
		return append(append([]ast.Expr(nil), s.Rhs...), s.Lhs...)
	case *ast.ReturnStmt:
		return s.Results
	case *ast.DeferStmt:
		return []ast.Expr{s.Call}
	case *ast.GoStmt:
		// Only the call's arguments evaluate now; the body runs later.
		return s.Call.Args
	case *ast.SendStmt:
		return []ast.Expr{s.Chan, s.Value}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			var out []ast.Expr
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
			return out
		}
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	}
	return nil
}

// scanExprs reports I/O calls inside the given expressions.
func (l *LockIO) scanExprs(p *Package, held []heldLock, exprs ...ast.Expr) []Diagnostic {
	if len(held) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			reason := l.ioReason(p, call)
			if reason == "" {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(call.Pos()),
				Message:  fmt.Sprintf("%s while holding %s; release the lock first", reason, held[len(held)-1].path),
				Analyzer: l.Name(),
			})
			return true
		})
	}
	return diags
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
