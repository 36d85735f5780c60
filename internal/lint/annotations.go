package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Annotation directives. Each is an escape hatch for one analyzer,
// written in a // comment on (or immediately above) the construct it
// applies to. DESIGN.md §7 documents when each is legitimate.
const (
	// DirectiveOwnsBuffer on a wire.GetBuffer call site asserts the
	// buffer's ownership is handed off in a way the analyzer cannot see;
	// on a function declaration it asserts the function takes ownership
	// of []byte arguments passed to it (a documented ownership-transfer
	// call).
	DirectiveOwnsBuffer = "swarmlint:owns-buffer"
	// DirectiveLocked on a function asserts its callers hold the mutex
	// guarding the fields it touches.
	DirectiveLocked = "swarmlint:locked"
	// DirectiveIOMutex on a mutex field asserts the mutex exists to
	// serialize I/O (a connection write lock), so I/O under it is its
	// purpose, not a bug.
	DirectiveIOMutex = "swarmlint:io-mutex"
	// DirectiveClassified on an error construction asserts the error is
	// intentionally outside the transient/permanent classification.
	DirectiveClassified = "swarmlint:classified"
	// DirectiveStatusCaseOK on a switch's default clause asserts the
	// default intentionally absorbs the unlisted status values (say why
	// the collapse is safe for future statuses).
	DirectiveStatusCaseOK = "swarmlint:statuscase-ok"
	// DirectiveAtomicOK on a field access asserts a plain read/write of
	// an atomically-accessed field is safe there (e.g. pre-publication
	// initialization before any concurrent access can exist).
	DirectiveAtomicOK = "swarmlint:atomic-ok"
	// DirectiveGoroleakOK on a go statement asserts the goroutine's
	// lifetime is bounded by something the analyzer cannot see (say what
	// terminates it).
	DirectiveGoroleakOK = "swarmlint:goroleak-ok"
)

// guardedByRe extracts the mutex name from a "guarded by <mu>" field
// comment.
var guardedByRe = regexp.MustCompile(`(?i)guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// annotations indexes a package's comments for directive lookups.
type annotations struct {
	fset *token.FileSet
	// byLine maps file → line → concatenated comment text for every
	// line that carries (part of) a comment.
	byLine map[string]map[int]string
	// fieldDocs maps an annotated struct field object to its comment
	// text (Doc ++ trailing line comment).
	fieldDocs map[*types.Var]string
	// funcDocs maps a declared function object to its doc text.
	funcDocs map[*types.Func]string
}

func newAnnotations(p *Package) *annotations {
	a := &annotations{
		fset:      p.Fset,
		byLine:    make(map[string]map[int]string),
		fieldDocs: make(map[*types.Var]string),
		funcDocs:  make(map[*types.Func]string),
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				m := a.byLine[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					a.byLine[pos.Filename] = m
				}
				// A multi-line /* */ comment registers on each line it
				// spans, so "line above" lookups see it.
				end := p.Fset.Position(c.End()).Line
				for line := pos.Line; line <= end; line++ {
					m[line] += c.Text + "\n"
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					text := fld.Doc.Text() + " " + fld.Comment.Text()
					if strings.TrimSpace(text) == "" {
						continue
					}
					for _, name := range fld.Names {
						if v, ok := p.Info.Defs[name].(*types.Var); ok {
							a.fieldDocs[v] = text
						}
					}
				}
			case *ast.FuncDecl:
				if n.Doc != nil {
					if fn, ok := p.Info.Defs[n.Name].(*types.Func); ok {
						a.funcDocs[fn] = n.Doc.Text()
					}
				}
			}
			return true
		})
	}
	return a
}

// onLine reports whether a comment containing directive sits on pos's
// line or the line directly above it.
func (a *annotations) onLine(pos token.Pos, directive string) bool {
	p := a.fset.Position(pos)
	m := a.byLine[p.Filename]
	if m == nil {
		return false
	}
	return strings.Contains(m[p.Line], directive) ||
		strings.Contains(m[p.Line-1], directive)
}

// fieldHas reports whether the struct field carries directive in its
// doc or trailing comment.
func (a *annotations) fieldHas(v *types.Var, directive string) bool {
	return strings.Contains(a.fieldDocs[v], directive)
}

// fieldGuard returns the guard mutex name from a field's "guarded by
// <mu>" comment, or "".
func (a *annotations) fieldGuard(v *types.Var) string {
	if m := guardedByRe.FindStringSubmatch(a.fieldDocs[v]); m != nil {
		return m[1]
	}
	return ""
}

// funcHas reports whether a function's doc comment (for declared
// functions) or the line above it (for function literals) carries
// directive.
func (a *annotations) funcHas(info *types.Info, fn ast.Node, directive string) bool {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
			if strings.Contains(a.funcDocs[obj], directive) {
				return true
			}
		}
		return a.onLine(fn.Pos(), directive)
	case *ast.FuncLit:
		return a.onLine(fn.Pos(), directive)
	}
	return false
}

// calleeHas reports whether the function called by call is declared
// with directive in its doc comment. Only functions declared in an
// analyzed package (same load) resolve; external callees report false.
func (a *annotations) calleeHas(info *types.Info, call *ast.CallExpr, directive string) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return false
	}
	return strings.Contains(a.funcDocs[fn], directive)
}
