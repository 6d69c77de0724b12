package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Tracepair statically mirrors the trace-invariant tests: every trace
// event kind that opens an interval (launch, start, plan) must have a
// closing emission (finish, cancel, requeue, reset) somewhere in the same
// package. A package that constructs EvTaskLaunch events but can never
// construct EvTaskFinish produces traces from which runtime.Builder cannot
// rebuild task records, so figure reproduction silently breaks. Only
// construction sites count — passing a constant to trace.New (or any
// wrapper returning trace.Event) or setting an Event's Type field;
// consumers that merely switch on event types are ignored.
var Tracepair = &Analyzer{
	Name:      "tracepair",
	Doc:       "require a matching Finish-kind emission for every Launch-kind trace emission",
	SkipTests: true,
	Run:       runTracepair,
}

// tracePairs maps each interval-opening event constant to the constants
// that may close it. EvTaskRequeue closes launch-side events because a
// requeued task's record is reset and rewritten on relaunch; the repair
// events close each other the same way — a queued stripe closes by
// launching, and a launched block closes by committing (EvRepairDone)
// or by being re-queued when a failure cancels the repair.
var tracePairs = map[string][]string{
	"EvRunStart":      {"EvRunEnd"},
	"EvJobSubmit":     {"EvJobFinish"},
	"EvJobQueued":     {"EvJobGrant", "EvJobFinish"},
	"EvTaskLaunch":    {"EvTaskFinish", "EvTaskRequeue"},
	"EvMapStart":      {"EvTaskFinish", "EvTaskRequeue"},
	"EvDegradedPlan":  {"EvDegradedDone", "EvTaskRequeue"},
	"EvHedgeLaunch":   {"EvFlowLatency", "EvTaskRequeue"},
	"EvReduceLaunch":  {"EvReduceFinish", "EvReduceReset"},
	"EvReduceStart":   {"EvReduceFinish", "EvReduceReset"},
	"EvTransferStart": {"EvTransferEnd", "EvTransferCancel"},
	"EvRepairQueued":  {"EvRepairLaunch"},
	"EvRepairLaunch":  {"EvRepairDone", "EvRepairQueued"},
}

func runTracepair(pass *Pass) {
	// built maps each trace event constant name to the positions where
	// this package constructs an event of that type.
	built := make(map[string][]token.Pos)
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := pass.Info.Uses[id].(*types.Const)
			if !ok || !strings.HasPrefix(c.Name(), "Ev") || !isTracePackage(pkgPathOf(c)) {
				return true
			}
			if isEventConstruction(pass, id, stack) {
				built[c.Name()] = append(built[c.Name()], id.Pos())
			}
			return true
		})
	}

	launches := make([]string, 0, len(tracePairs))
	for name := range tracePairs {
		launches = append(launches, name)
	}
	sort.Strings(launches)
	for _, launch := range launches {
		sites := built[launch]
		if len(sites) == 0 {
			continue
		}
		closed := false
		for _, closer := range tracePairs[launch] {
			if len(built[closer]) > 0 {
				closed = true
				break
			}
		}
		if closed {
			continue
		}
		for _, pos := range sites {
			pass.Reportf(pos, "trace %s is emitted but no %s emission exists in this package; the interval can never close",
				launch, strings.Join(tracePairs[launch], " or "))
		}
	}
}

// isEventConstruction reports whether the constant reference builds an
// event: an argument to a call returning trace.Event (trace.New or a
// wrapper), the Type field of an Event composite literal, or an
// assignment to an Event's Type field.
func isEventConstruction(pass *Pass, id *ast.Ident, stack []ast.Node) bool {
	// Skip over the SelectorExpr wrapping a qualified trace.EvX reference.
	i := len(stack) - 1
	if i >= 0 {
		if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
			i--
		}
	}
	if i < 0 {
		return false
	}
	switch parent := stack[i].(type) {
	case *ast.CallExpr:
		for _, arg := range parent.Args {
			if containsIdent(arg, id) {
				return isTraceEventType(pass.Info.TypeOf(parent))
			}
		}
	case *ast.KeyValueExpr:
		if key, ok := parent.Key.(*ast.Ident); ok && key.Name == "Type" {
			return true
		}
	case *ast.AssignStmt:
		for j, rhs := range parent.Rhs {
			if !containsIdent(rhs, id) || j >= len(parent.Lhs) {
				continue
			}
			if sel, ok := ast.Unparen(parent.Lhs[j]).(*ast.SelectorExpr); ok && sel.Sel.Name == "Type" {
				return isTraceEventType(pass.Info.TypeOf(sel.X))
			}
		}
	}
	return false
}

// containsIdent reports whether expr is id, possibly wrapped in a
// selector or parentheses.
func containsIdent(expr ast.Expr, id *ast.Ident) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e == id
	case *ast.SelectorExpr:
		return e.Sel == id
	}
	return false
}

// isTraceEventType reports whether t is the trace package's Event type.
func isTraceEventType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Event" && isTracePackage(pkgPathOf(named.Obj()))
}
