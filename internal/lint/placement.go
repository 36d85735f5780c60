package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Placement flags direct indexing into server-connection slices
// ([]transport.ServerConn) in data-path packages. After the versioned
// placement map refactor (DESIGN.md §3.12), "which server holds stripe
// s, slot i" is an epoch-dependent question that only
// placement.Map/View can answer; positional indexing into a conns
// slice silently re-encodes the fixed-cluster assumption the refactor
// removed, and goes stale the first time a server joins or drains.
// Enumerating connections (range) is fine — it names no slot — and
// construction code in harnesses, benchmarks, and CLIs builds its
// slices before a log exists, so only the packages that resolve
// placement at runtime are checked.
//
// Escape hatch: a statement annotated swarmlint:placement-ok asserts
// the index is not a placement decision (e.g. picking an arbitrary
// connection for a broadcast probe).
type Placement struct {
	check map[string]bool
}

// DirectivePlacementOK on a statement asserts an index into a server
// slice is not a placement decision.
const DirectivePlacementOK = "swarmlint:placement-ok"

// NewPlacement returns the placement-indexing analyzer; only packages
// whose import paths appear in check are analyzed.
func NewPlacement(check []string) *Placement {
	return &Placement{check: stringSet(check)}
}

// Name implements Analyzer.
func (*Placement) Name() string { return "placement" }

// Doc implements Analyzer.
func (*Placement) Doc() string {
	return "no direct indexing into server-connection slices outside internal/placement"
}

// Run implements Analyzer.
func (pl *Placement) Run(p *Package) []Diagnostic {
	if !pl.check[p.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			if !isServerConnSlice(p.Info.TypeOf(ix.X)) {
				return true
			}
			if p.Annotations().onLine(ix.Pos(), DirectivePlacementOK) {
				return true
			}
			out = append(out, p.diag(ix.Pos(), pl.Name(), fmt.Sprintf("direct index into a server-connection slice: placement is epoch-dependent, "+
				"resolve the server through placement.Map/View (or annotate with %s)", DirectivePlacementOK)))
			return true
		})
	}
	return out
}

// isServerConnSlice reports whether t is (or is named as) a slice of
// transport.ServerConn.
func isServerConnSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != "ServerConn" || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/transport")
}
