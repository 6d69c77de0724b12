package lint

import (
	"go/ast"
	"go/types"
)

// Errsink flags error values discarded with the blank identifier in
// non-test code. The trace layer is the archetype: trace.JSONL.Close
// returns the first write error, and a dropped Close error means a
// silently truncated trace file. Handle the error or suppress the
// finding with an explicit //lint:ignore errsink <reason>.
var Errsink = &Analyzer{
	Name:      "errsink",
	Doc:       "flag error values assigned to _ in non-test code",
	SkipTests: true,
	Run:       runErrsink,
}

func runErrsink(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				// Multi-value call: v, _ := f()
				tuple, ok := pass.Info.TypeOf(as.Rhs[0]).(*types.Tuple)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if i < tuple.Len() && isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
						pass.Reportf(lhs.Pos(), "error result discarded with _; handle it (or //lint:ignore errsink with a reason)")
					}
				}
				return true
			}
			for i, lhs := range as.Lhs {
				if i < len(as.Rhs) && isBlank(lhs) && isErrorType(pass.Info.TypeOf(as.Rhs[i])) {
					pass.Reportf(lhs.Pos(), "error result discarded with _; handle it (or //lint:ignore errsink with a reason)")
				}
			}
			return true
		})
	}
}

func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
