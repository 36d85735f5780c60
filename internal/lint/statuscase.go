package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// StatusCase enforces exhaustive handling of the wire.Status enum in
// data-path packages. The enum grows (PR 9 added StatusBusy) and every
// switch over it is a decision the whole cluster depends on — the
// resilient transport's retry classifier most of all: a status that
// falls through an incomplete switch silently takes the default
// disposition, which for a retryable shed means a spurious permanent
// failure. The rule: a switch whose tag is the configured enum type
// must either list every exported member of the enum, or carry a
// default clause annotated swarmlint:statuscase-ok explaining why
// collapsing the unlisted members is safe. A switch that is complete
// today needs no default and no annotation — and the moment a new
// member appears, every such switch lights up.
type StatusCase struct {
	// typeName is "importpath.TypeName" of the enum.
	typeName string
	// check maps package import paths in scope.
	check map[string]bool
}

// NewStatusCase returns the exhaustiveness analyzer for the named enum
// type ("importpath.TypeName") in the given packages.
func NewStatusCase(typeName string, pkgs []string) *StatusCase {
	return &StatusCase{typeName: typeName, check: stringSet(pkgs)}
}

// Name implements Analyzer.
func (*StatusCase) Name() string { return "statuscase" }

// Doc implements Analyzer.
func (sc *StatusCase) Doc() string {
	return fmt.Sprintf("switches over %s cover every member or carry an annotated default", sc.typeName)
}

// Run implements Analyzer.
func (sc *StatusCase) Run(p *Package) []Diagnostic {
	if !sc.check[p.Path] {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			named := sc.enumType(p.Info.TypeOf(sw.Tag))
			if named == nil {
				return true
			}
			if d := sc.checkSwitch(p, sw, named); d != nil {
				diags = append(diags, *d)
			}
			return true
		})
	}
	return diags
}

// enumType returns the switch tag's named type when it is the
// configured enum, else nil.
func (sc *StatusCase) enumType(t types.Type) *types.Named {
	named := namedOrPointee(t)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path()+"."+named.Obj().Name() != sc.typeName {
		return nil
	}
	return named
}

// members enumerates the exported constants of the enum's declaring
// package whose type is the enum. Unexported sentinels (statusCount)
// are not part of the public enum and are excluded.
func (sc *StatusCase) members(named *types.Named) []string {
	scope := named.Obj().Pkg().Scope()
	var out []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		if !types.Identical(c.Type(), named) {
			continue
		}
		out = append(out, c.Name())
	}
	sort.Strings(out)
	return out
}

// checkSwitch verifies one switch statement and returns a diagnostic or
// nil.
func (sc *StatusCase) checkSwitch(p *Package, sw *ast.SwitchStmt, named *types.Named) *Diagnostic {
	covered := make(map[string]bool)
	var defaultClause *ast.CaseClause
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if c := sc.caseConst(p.Info, e); c != nil {
				covered[c.Name()] = true
			}
		}
	}
	var missing []string
	for _, m := range sc.members(named) {
		if !covered[m] {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if defaultClause != nil && p.Annotations().onLine(defaultClause.Pos(), DirectiveStatusCaseOK) {
		return nil
	}
	verb := "add the missing cases"
	if defaultClause != nil {
		verb = "add the missing cases or annotate the default with " + DirectiveStatusCaseOK
	} else {
		verb += " or an annotated default"
	}
	d := p.diag(sw.Switch, sc.Name(), fmt.Sprintf("switch over %s does not handle %s; %s",
		named.Obj().Name(), strings.Join(missing, ", "), verb))
	return &d
}

// caseConst resolves a case expression to the enum constant it names,
// or nil for non-constant case expressions.
func (sc *StatusCase) caseConst(info *types.Info, e ast.Expr) *types.Const {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	}
	c, ok := obj.(*types.Const)
	if !ok {
		return nil
	}
	return c
}
