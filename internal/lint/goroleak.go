package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak enforces goroutine lifecycle discipline in data-path
// packages: every `go` statement must be visibly tied to something that
// bounds or terminates it, or carry swarmlint:goroleak-ok naming what
// does. The population of background workers keeps growing — readahead,
// rebalance movers, straggler drains, connection readers — and a worker
// nobody can stop is a leak per server restart and a shutdown hang
// waiting to happen (the chaos harness restarts servers hundreds of
// times per run).
//
// A goroutine counts as tied when the spawned body contains any of:
//
//   - a Done() call on a sync.WaitGroup — the spawner (or its owner)
//     waits for it;
//   - a close(ch) — the goroutine signals its own completion through a
//     lifecycle channel;
//   - a channel receive (unary <-, range over a channel, or select) —
//     the goroutine parks on channels its owner controls, so closing
//     them unblocks and terminates it;
//   - a send on a channel declared in the spawning function — a
//     result-delivery worker whose lifetime is the request that spawned
//     it.
//
// The body is the function literal itself, or — for `go m.method()` —
// the same-package declaration of the callee. A spawn whose body the
// analyzer cannot see (external callee, method value) needs the
// annotation.
type GoroLeak struct {
	check map[string]bool
}

// NewGoroLeak returns the goroutine-lifecycle analyzer for the given
// package import paths.
func NewGoroLeak(pkgs []string) *GoroLeak {
	return &GoroLeak{check: stringSet(pkgs)}
}

// Name implements Analyzer.
func (*GoroLeak) Name() string { return "goroleak" }

// Doc implements Analyzer.
func (*GoroLeak) Doc() string {
	return "goroutines in data-path packages are tied to a WaitGroup, pool, or lifecycle-owned channel"
}

// Run implements Analyzer.
func (gl *GoroLeak) Run(p *Package) []Diagnostic {
	if !gl.check[p.Path] {
		return nil
	}
	decls := declaredFuncs(p)
	ann := p.Annotations()
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if ann.onLine(g.Pos(), DirectiveGoroleakOK) {
				return true
			}
			spawner := FuncBody(p.EnclosingFunc(g))
			if body, args := spawnedBody(p, decls, g.Call); body != nil {
				if gl.tied(p, body, spawner) || gl.tiedArgs(p, args, spawner) {
					return true
				}
			}
			diags = append(diags, p.diag(g.Pos(), gl.Name(),
				"goroutine is not visibly tied to a WaitGroup, bounded pool, or lifecycle-owned channel; "+
					"tie its lifetime or annotate with "+DirectiveGoroleakOK+" naming what terminates it"))
			return true
		})
	}
	return diags
}

// declaredFuncs maps each function declared in the package to its body,
// so `go m.method()` can be checked through the declaration.
func declaredFuncs(p *Package) map[*types.Func]*ast.BlockStmt {
	m := make(map[*types.Func]*ast.BlockStmt)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd.Body
			}
		}
	}
	return m
}

// spawnedBody resolves the body the go statement runs: a function
// literal's own body, or the same-package declaration of a named
// callee. Returns the spawn call's arguments too — a channel passed as
// an argument ties the goroutine even when the body is opaque.
func spawnedBody(p *Package, decls map[*types.Func]*ast.BlockStmt, call *ast.CallExpr) (*ast.BlockStmt, []ast.Expr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, call.Args
	}
	if fn, ok := calleeObject(p.Info, call).(*types.Func); ok {
		if body := decls[fn]; body != nil {
			return body, call.Args
		}
	}
	return nil, call.Args
}

// tied reports whether body contains any of the lifecycle ties.
func (gl *GoroLeak) tied(p *Package, body *ast.BlockStmt, spawner *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWaitGroupDone(p.Info, n) || isBuiltinCall(p.Info, n, "close") {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // channel receive: owner can unblock it
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectStmt:
			found = true
		case *ast.SendStmt:
			// A send ties the goroutine only when the channel belongs to
			// the spawning function (result delivery to a waiting owner);
			// sends on long-lived shared channels prove nothing.
			if spawner != nil {
				if v := rootIdentVar(p.Info, n.Chan); v != nil &&
					v.Pos() >= spawner.Pos() && v.Pos() <= spawner.End() {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// tiedArgs reports whether the spawn call passes a channel declared in
// the spawning function — handing the goroutine a lifecycle channel.
func (gl *GoroLeak) tiedArgs(p *Package, args []ast.Expr, spawner *ast.BlockStmt) bool {
	if spawner == nil {
		return false
	}
	for _, a := range args {
		t := p.Info.TypeOf(a)
		if t == nil {
			continue
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			continue
		}
		if v := rootIdentVar(p.Info, a); v != nil &&
			v.Pos() >= spawner.Pos() && v.Pos() <= spawner.End() {
			return true
		}
	}
	return false
}

// isWaitGroupDone reports whether call is wg.Done() on a sync.WaitGroup.
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	return typeFromPkg(info.TypeOf(sel.X), "sync")
}

// rootIdentVar walks selector/index/star chains down to the base
// identifier's variable: s.ch -> s. A channel's root variable says
// which function it belongs to.
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
