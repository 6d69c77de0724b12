// Package lint is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/ast, go/parser and
// go/types (no x/tools). It exists because the whole reproduction rests
// on determinism: the golden backend-equivalence test pins both engines
// to identical scheduler decisions, and runtime.Builder must rebuild
// the paper's figures byte-for-byte from a recorded trace. The analyzers
// turn those invariants — no wall-clock time, no global RNG, no
// map-iteration-order-dependent scheduling — into compile-time checks.
//
// The driver (cmd/dflint) loads packages from source, runs every
// analyzer, honors //lint:ignore <analyzers> <reason> suppression
// comments, and exits non-zero on findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a type-checked set of files.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SkipTests exempts _test.go files from this analyzer by policy.
	SkipTests bool
	// Packages restricts the analyzer to import paths (relative to the
	// module root) with one of these prefixes. Nil means every package.
	Packages []string
	// Exempt excludes import paths with one of these prefixes even when
	// Packages matches. It expresses "everywhere except": the netboundary
	// analyzer covers the whole module minus the packages whose job is
	// real I/O.
	Exempt []string
	// Run reports findings on one Unit via pass.Reportf.
	Run func(*Pass)
}

// appliesTo reports whether the analyzer covers the package with the
// given module-relative import path ("internal/sim", "cmd/dflint", ...).
func (a *Analyzer) appliesTo(relPath string) bool {
	for _, p := range a.Exempt {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return false
		}
	}
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one unit of files.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the files to analyze. For test units these are only the
	// _test.go files, but Info covers the whole (test-augmented) package.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Test reports whether Files are _test.go files.
	Test bool

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding. File is module-relative and slash-separated
// once the driver has normalized it, so output is stable across machines.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzers returns every analyzer in the suite, sorted by name.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Errsink,
		Floateq,
		Maporder,
		Netboundary,
		Panicmsg,
		Serial,
	}
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package defining obj, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isSimPackage reports whether an import path is the repo's discrete-event
// engine package.
func isSimPackage(path string) bool {
	return strings.HasSuffix(path, "internal/sim")
}

var errorType = types.Universe.Lookup("error").Type()
