package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// ErrClass enforces the transport's error-classification contract
// (DESIGN.md §2.4): the resilient layer decides retry-vs-fail by
// inspecting error chains — *wire.StatusError means the server answered
// (permanent), everything else is presumed transient and wrapped in
// transport.ErrUnavailable. A naked errors.New or fmt.Errorf with no %w
// constructed inside the classified packages produces an error that
// chains to nothing, so callers cannot classify it: errors.Is sees
// neither sentinel and the circuit breaker treats it by the transient
// default, silently. Every in-function error construction in those
// packages must wrap a classifiable cause with %w or carry a
// swarmlint:classified annotation stating the escape is deliberate.
//
// Package-level sentinel declarations (ErrUnavailable itself) are
// exempt: sentinels are the classification vocabulary, not users of it.
type ErrClass struct {
	targets map[string]bool
}

// NewErrClass returns the error-classification analyzer for the given
// package import paths.
func NewErrClass(targets []string) *ErrClass {
	return &ErrClass{targets: stringSet(targets)}
}

// Name implements Analyzer.
func (*ErrClass) Name() string { return "errclass" }

// Doc implements Analyzer.
func (*ErrClass) Doc() string {
	return "transport/fragio errors must wrap a classifiable cause (%w) — no naked errors.New/fmt.Errorf"
}

// Run implements Analyzer.
func (e *ErrClass) Run(p *Package) []Diagnostic {
	if !e.targets[p.Path] {
		return nil
	}
	ann := p.Annotations()
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var msg string
			switch {
			case isFunc(p.Info, call, "errors", "New"):
				msg = "naked errors.New in a classified package: wrap a sentinel with fmt.Errorf(\"...: %w\", ...) so the resilient layer can classify it"
			case isFunc(p.Info, call, "fmt", "Errorf") && !errorfWraps(call):
				msg = "fmt.Errorf without %w in a classified package: the error chains to nothing, so retry/circuit-breaker classification cannot see through it"
			default:
				return true
			}
			if p.EnclosingFunc(call) == nil {
				return true // package-level sentinel declaration
			}
			if ann.onLine(call.Pos(), DirectiveClassified) {
				return true
			}
			diags = append(diags, p.diag(call.Pos(), e.Name(), msg+"; or annotate with "+DirectiveClassified))
			return true
		})
	}
	return diags
}

// errorfWraps reports whether a fmt.Errorf call's format string wraps
// an error with %w. A non-literal format cannot be judged lexically and
// is given the benefit of the doubt.
func errorfWraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return true
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return true
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return true
	}
	return strings.Contains(format, "%w")
}
