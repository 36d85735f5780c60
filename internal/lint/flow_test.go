package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// The flow walker is the foundation the flow-sensitive analyzers stand
// on, so it gets direct coverage — branch joins, defers, early returns,
// loops, switch/select, panic paths — independent of any analyzer's
// acquisition semantics. The test hooks implement a toy discipline:
// x := acquire() makes x held, release(x) discharges it (directly or
// deferred), and x == nil refines the obligation away.

// flowTestHooks is the toy discipline driving walker tests.
type flowTestHooks struct {
	info    *types.Info
	tracked map[string]*types.Var
}

func (h *flowTestHooks) acquireCall(rhs []ast.Expr) bool {
	if len(rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "acquire"
}

func (h *flowTestHooks) Transfer(st *flowState, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if !h.acquireCall(s.Rhs) {
			return
		}
		for _, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := h.info.Defs[id].(*types.Var); ok {
				h.tracked[v.Name()] = v
				st.Set(v, flowHeld)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			h.Call(st, call)
		}
	}
}

func (h *flowTestHooks) Call(st *flowState, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "release" || len(call.Args) != 1 {
		return
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := h.info.Uses[arg].(*types.Var); ok {
		st.Set(v, flowDone)
	}
}

func (h *flowTestHooks) Eval(*flowState, ast.Expr) {}

func (h *flowTestHooks) Refine(st *flowState, cond ast.Expr, truth bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return
	}
	id, ok := nilComparand(h.info, b)
	if !ok {
		return
	}
	v, isVar := h.info.Uses[id].(*types.Var)
	if !isVar {
		return
	}
	if (b.Op == token.EQL) == truth { // the nil branch: nothing was acquired
		st.Set(v, flowNone)
	}
}

// runFlow type-checks body (wrapped in a scaffold with acquire/release
// declared) and returns, per exit, the status of each tracked variable
// by name. Exits are keyed by source line of the exit node.
func runFlow(t *testing.T, body string) map[int]map[string]flowStatus {
	t.Helper()
	src := fmt.Sprintf(`package p

type obj struct{ f int }

func acquire() *obj    { return new(obj) }
func release(o *obj)   {}
func cond() bool       { return true }
func ch() chan int     { return nil }

func scaffold() {
%s
}
`, body)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "flow_test_src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "scaffold" {
			fn = fd
		}
	}
	if fn == nil {
		t.Fatal("scaffold not found")
	}
	h := &flowTestHooks{info: info, tracked: make(map[string]*types.Var)}
	exits := make(map[int]map[string]flowStatus)
	walkFlow(fn.Body, info, h, func(st *flowState, at ast.Node) {
		line := fset.Position(at.Pos()).Line
		m := make(map[string]flowStatus)
		for name, v := range h.tracked {
			m[name] = st.Get(v)
		}
		if prev, ok := exits[line]; ok {
			for name, s := range m {
				m[name] = mergeStatus(prev[name], s)
			}
		}
		exits[line] = m
	})
	return exits
}

// single asserts exactly one exit and returns x's status at it.
func single(t *testing.T, exits map[int]map[string]flowStatus) flowStatus {
	t.Helper()
	if len(exits) != 1 {
		t.Fatalf("want 1 exit, got %d: %v", len(exits), exits)
	}
	for _, m := range exits {
		return m["x"]
	}
	panic("unreachable")
}

func TestFlowStraightLine(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	release(x)
`)); got != flowDone {
		t.Errorf("straight-line release: got %v, want flowDone", got)
	}
}

func TestFlowLeakDetected(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	_ = x
`)); got != flowHeld {
		t.Errorf("no release: got %v, want flowHeld", got)
	}
}

func TestFlowEarlyReturnLeaks(t *testing.T) {
	exits := runFlow(t, `
	x := acquire()
	if cond() {
		return
	}
	release(x)
`)
	if len(exits) != 2 {
		t.Fatalf("want 2 exits, got %v", exits)
	}
	var sawHeld, sawDone bool
	for _, m := range exits {
		switch m["x"] {
		case flowHeld:
			sawHeld = true
		case flowDone:
			sawDone = true
		}
	}
	if !sawHeld || !sawDone {
		t.Errorf("want one held exit (early return) and one done exit, got %v", exits)
	}
}

func TestFlowBranchJoinPartialRelease(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	if cond() {
		release(x)
	}
`)); got != flowMaybeHeld {
		t.Errorf("one-armed release: got %v, want flowMaybeHeld", got)
	}
}

func TestFlowBranchJoinBothRelease(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	if cond() {
		release(x)
	} else {
		release(x)
	}
`)); got != flowDone {
		t.Errorf("both arms release: got %v, want flowDone", got)
	}
}

func TestFlowDeferCoversAllExits(t *testing.T) {
	exits := runFlow(t, `
	x := acquire()
	defer release(x)
	if cond() {
		return
	}
`)
	if len(exits) != 2 {
		t.Fatalf("want 2 exits, got %v", exits)
	}
	for line, m := range exits {
		if m["x"] != flowDone {
			t.Errorf("exit at line %d: got %v, want flowDone (defer replayed)", line, m["x"])
		}
	}
}

func TestFlowDeferAfterReturnDoesNotCover(t *testing.T) {
	// The defer is registered after the early return: that exit leaks.
	exits := runFlow(t, `
	x := acquire()
	if cond() {
		return
	}
	defer release(x)
`)
	var sawHeld, sawDone bool
	for _, m := range exits {
		switch m["x"] {
		case flowHeld:
			sawHeld = true
		case flowDone:
			sawDone = true
		}
	}
	if !sawHeld || !sawDone {
		t.Errorf("want held at the pre-defer return and done at the end, got %v", exits)
	}
}

func TestFlowPanicPathVanishes(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	if cond() {
		panic("boom")
	}
	release(x)
`)); got != flowDone {
		t.Errorf("panic path should not report an exit: got %v, want flowDone", got)
	}
}

func TestFlowNilRefinement(t *testing.T) {
	exits := runFlow(t, `
	x := acquire()
	if x == nil {
		return
	}
	release(x)
`)
	for _, m := range exits {
		if m["x"] != flowNone && m["x"] != flowDone {
			t.Errorf("nil-refined or released on every exit, got %v", exits)
		}
	}
}

func TestFlowLoopBreakCarriesState(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	for {
		release(x)
		break
	}
`)); got != flowDone {
		t.Errorf("release-then-break in for{}: got %v, want flowDone", got)
	}
}

func TestFlowInfiniteLoopUnreachableAfter(t *testing.T) {
	// for{} without break: the statement after never runs, and the only
	// exits are the returns inside the loop.
	exits := runFlow(t, `
	x := acquire()
	for {
		if cond() {
			release(x)
			return
		}
	}
`)
	if got := single(t, exits); got != flowDone {
		t.Errorf("return inside for{}: got %v, want flowDone", got)
	}
}

func TestFlowRangeZeroIterations(t *testing.T) {
	// A release inside a range body may run zero times.
	if got := single(t, runFlow(t, `
	x := acquire()
	for range []int{} {
		release(x)
	}
`)); got != flowMaybeHeld {
		t.Errorf("release in range body: got %v, want flowMaybeHeld", got)
	}
}

func TestFlowSwitchNoDefaultMergesEntry(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	switch {
	case cond():
		release(x)
	}
`)); got != flowMaybeHeld {
		t.Errorf("switch without default: got %v, want flowMaybeHeld", got)
	}
}

func TestFlowSwitchAllCasesRelease(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	switch {
	case cond():
		release(x)
	default:
		release(x)
	}
`)); got != flowDone {
		t.Errorf("exhaustive switch releases: got %v, want flowDone", got)
	}
}

func TestFlowSwitchFallthrough(t *testing.T) {
	// The release lives in the second clause; the first falls through
	// into it, so both paths discharge.
	if got := single(t, runFlow(t, `
	x := acquire()
	switch 1 {
	case 1:
		fallthrough
	case 2:
		release(x)
	default:
		release(x)
	}
`)); got != flowDone {
		t.Errorf("fallthrough into releasing clause: got %v, want flowDone", got)
	}
}

func TestFlowSelectEveryCommRuns(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	select {
	case <-ch():
		release(x)
	case <-ch():
		release(x)
	}
`)); got != flowDone {
		t.Errorf("every select comm releases: got %v, want flowDone", got)
	}
}

func TestFlowSelectOneCommLeaks(t *testing.T) {
	if got := single(t, runFlow(t, `
	x := acquire()
	select {
	case <-ch():
		release(x)
	case <-ch():
	}
`)); got != flowMaybeHeld {
		t.Errorf("one select comm leaks: got %v, want flowMaybeHeld", got)
	}
}

func TestFlowContinueMergesAtLoopHead(t *testing.T) {
	// continue before the release: that iteration path skips it, so the
	// post-loop state is conditional.
	if got := single(t, runFlow(t, `
	x := acquire()
	for i := 0; i < 3; i++ {
		if cond() {
			continue
		}
		release(x)
	}
`)); got != flowMaybeHeld {
		t.Errorf("continue skipping release: got %v, want flowMaybeHeld", got)
	}
}

func TestMergeStatusTable(t *testing.T) {
	cases := []struct {
		a, b, want flowStatus
	}{
		{flowNone, flowNone, flowNone},
		{flowDone, flowDone, flowDone},
		{flowHeld, flowHeld, flowHeld},
		{flowHeld, flowDone, flowMaybeHeld},
		{flowHeld, flowNone, flowMaybeHeld},
		{flowMaybeHeld, flowDone, flowMaybeHeld},
		{flowMaybeHeld, flowHeld, flowMaybeHeld},
		{flowNone, flowDone, flowDone},
	}
	for _, c := range cases {
		if got := mergeStatus(c.a, c.b); got != c.want {
			t.Errorf("mergeStatus(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := mergeStatus(c.b, c.a); got != c.want {
			t.Errorf("mergeStatus(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}
