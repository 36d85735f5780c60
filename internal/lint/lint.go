// Package lint is swarmlint's analysis engine: a stdlib-only analyzer
// driver (go/ast + go/types, no golang.org/x/tools) that enforces
// Swarm-specific invariants which `go vet` knows nothing about. The
// system's design premise — dumb servers, smart clients — concentrates
// correctness in client-side conventions: the wire buffer pool's
// ownership rules, the no-I/O-under-metadata-locks discipline the
// group-commit refactor introduced, guarded-by relationships between
// struct fields and their mutexes, and the transient/permanent error
// classification the resilient transport depends on. Each analyzer in
// this package checks one of those invariants (DESIGN.md §7).
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding, reported as file:line: message
// [analyzer].
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String formats the diagnostic in the driver's canonical form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer)
}

// Analyzer is one invariant checker. Analyzers are stateless across
// packages: Run is called once per loaded package.
type Analyzer interface {
	// Name is the short identifier printed with each diagnostic.
	Name() string
	// Doc is a one-line description of the invariant.
	Doc() string
	// Run analyzes one type-checked package.
	Run(p *Package) []Diagnostic
}

// Package is one type-checked package presented to analyzers.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ann     *annotations
	parents map[ast.Node]ast.Node
}

// Annotations returns the package's swarmlint comment directives,
// building the index on first use.
func (p *Package) Annotations() *annotations {
	if p.ann == nil {
		p.ann = newAnnotations(p)
	}
	return p.ann
}

// Parent returns the syntactic parent of n, or nil. The parent map is
// built lazily over all of the package's files.
func (p *Package) Parent(n ast.Node) ast.Node {
	if p.parents == nil {
		p.parents = make(map[ast.Node]ast.Node)
		for _, f := range p.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					p.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return p.parents[n]
}

// outerParent returns the parent of n seen through parentheses.
func (p *Package) outerParent(n ast.Node) ast.Node {
	parent := p.Parent(n)
	for {
		pe, ok := parent.(*ast.ParenExpr)
		if !ok {
			return parent
		}
		parent = p.Parent(pe)
	}
}

// EnclosingFunc returns the innermost FuncDecl or FuncLit containing n,
// or nil.
func (p *Package) EnclosingFunc(n ast.Node) ast.Node {
	for cur := p.Parent(n); cur != nil; cur = p.Parent(cur) {
		switch cur.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return cur
		}
	}
	return nil
}

// FuncBody returns the body of a FuncDecl or FuncLit node.
func FuncBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// Run executes the analyzers concurrently — one goroutine per
// analyzer, each walking every package — and returns the combined
// diagnostics sorted by position. A finding repeated on one line (a
// field read twice, a deferred call replayed at every exit) is
// reported once. Analyzers are independent of one
// another, but Package's lazy annotation and parent indexes are not
// thread-safe, so they are built before the fan-out.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	for _, p := range pkgs {
		p.Annotations()
		if len(p.Files) > 0 {
			p.Parent(p.Files[0]) // one call builds the whole parent map
		}
	}
	perAnalyzer := make([][]Diagnostic, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range pkgs {
				perAnalyzer[i] = append(perAnalyzer[i], a.Run(p)...)
			}
		}()
	}
	wg.Wait()
	out := slices.Concat(perAnalyzer...)
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			strings.Compare(a.Message, b.Message), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return slices.CompactFunc(out, func(a, b Diagnostic) bool { return a.String() == b.String() })
}

// Default returns the full analyzer suite with the repository's
// configuration: the wire buffer pool's package path, the disk layer
// exempted from lockio (it is the I/O layer the invariant protects
// callers of), the error-classification boundary around the transport
// and fragment-I/O packages, the placement-indexing invariant over the
// packages that resolve server placement at runtime (harnesses and
// CLIs build their connection slices before a log exists, so they are
// out of scope), the wire.Status enum's exhaustiveness boundary, and the goroutine-lifecycle discipline over
// the packages that run background workers.
func Default() []Analyzer {
	dataPath := []string{
		"swarm",
		"swarm/internal/core",
		"swarm/internal/server",
		"swarm/internal/transport",
		"swarm/internal/fragio",
		"swarm/internal/rebalance",
		"swarm/internal/cleaner",
		"swarm/internal/service",
	}
	return []Analyzer{
		NewBufPool("swarm/internal/wire"),
		NewLockIO("swarm/internal/disk"),
		NewGuardedBy(),
		NewErrClass([]string{"swarm/internal/transport", "swarm/internal/fragio"}),
		NewPlacement([]string{
			"swarm",
			"swarm/internal/core",
			"swarm/internal/fragio",
			"swarm/internal/rebalance",
			"swarm/internal/cleaner",
			"swarm/internal/service",
		}),
		NewStatusCase("swarm/internal/wire.Status", append([]string{"swarm/internal/wire"}, dataPath...)),
		NewAtomicMix(),
		NewGoroLeak(dataPath),
	}
}

// stringSet returns the set of the strings in ss.
func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// diag is analyzer's finding msg at pos.
func (p *Package) diag(pos token.Pos, analyzer, msg string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Message: msg, Analyzer: analyzer}
}

// varOf resolves an identifier, defining or using, to its variable, or
// nil.
func varOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// ByName returns the analyzers whose names appear in names (order
// preserved from all); unknown names return an error.
func ByName(all []Analyzer, names []string) ([]Analyzer, error) {
	want := stringSet(names)
	var out []Analyzer
	for _, a := range all {
		if want[a.Name()] {
			out = append(out, a)
			delete(want, a.Name())
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown analyzer %q", n)
	}
	return out, nil
}

// exprString renders a (small) expression as source text — used to match
// mutex paths like "s.mu" between Lock and Unlock calls. It covers the
// expression forms that plausibly name a mutex; anything else yields a
// non-matching placeholder.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	}
	return "\x00unmatchable"
}

// namedOrPointee unwraps pointers and aliases down to a named type, or
// nil.
func namedOrPointee(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeFromPkg reports whether t (after unwrapping pointers) is a named
// type declared in the package with the given import path.
func typeFromPkg(t types.Type, path string) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == path
}

// calleeObject resolves the called function or method of call, or nil
// (builtins, function-typed variables and conversions yield nil unless
// they resolve to a types.Func).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isFunc reports whether call resolves to the function name in package
// path pkgPath.
func isFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj, ok := calleeObject(info, call).(*types.Func)
	if !ok || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath
}
