package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testAPIs are the exported names under internal/ that only tests call on
// purpose, each with the reason it stays exported. bench/ references count
// as production callers, so the harnesses it drives need no entry here.
var testAPIs = map[string]string{
	"erasure.linear.Reconstruct": "the dfs and erasure tests' oracle: rebuilds every lost shard of a stripe at once",
	"netsim.Flow.Rate":           "the max-min property oracle reads each flow's current rate",
	"netsim.Net.ActiveFlows":     "the solver tests' view of the flows holding bandwidth",
	"netsim.Net.WaitingFlows":    "the solver tests' view of the flows waiting on a rate",
	"runtime.BuildResult":        "rebuilds a Result from a recorded trace, the replay invariant's oracle",
	"sim.Event.At":               "netsim's invariant oracle reads when its pending completion fires",
	"trace.Memory.Events":        "the only reader of the sink the root package exports as MemoryTrace",
	"trace.ReadJSONL":            "reads a trace back for the round-trip fuzz test and the replay tests",
}

// deadExports reports every exported func, method and type declared in the
// non-test files of the packages under declDir (module-relative) that no
// non-test file of units references outside the name's own declaration.
// A method is exempt when some interface the program can see has a method
// of that name (String, Error, Place, ...): a call through the interface
// resolves to the interface's method, so the concrete one shows no use.
// Names in allow are exempt too, keyed "pkg.Name" or "pkg.Type.Method";
// an entry naming nothing that would be reported is itself reported.
func deadExports(l *Loader, units []*Unit, declDir string, allow map[string]string) []Diagnostic {
	type decl struct {
		key  string
		node ast.Node // uses inside the declaration itself do not count
		used bool
	}
	decls := make(map[types.Object]*decl)
	for _, u := range units {
		rel := l.relPath(u.PkgPath)
		if u.Test || !strings.HasPrefix(rel+"/", declDir+"/") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node, key string) {
			decls[u.Info.Defs[id]] = &decl{key: u.Pkg.Name() + "." + key, node: node}
		}
		for _, f := range u.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						add(d.Name, d, d.Name.Name)
						continue
					}
					recv := u.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					add(d.Name, d, recv.(*types.Named).Obj().Name()+"."+d.Name.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							add(ts.Name, ts, ts.Name.Name)
						}
					}
				}
			}
		}
	}

	// error's method, and Unwrap, which errors.Is and errors.As call
	// through an interface declared inside their function bodies.
	ifaceMethods := map[string]bool{"Error": true, "Unwrap": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, u := range units {
		if u.Test {
			continue
		}
		visit(u.Pkg)
		// A method's receiver names its type without using it.
		var recvs []ast.Node
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recvs = append(recvs, fd.Recv)
				}
			}
		}
		for _, tv := range u.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for id, obj := range u.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := decls[obj]; d != nil && !within(id, d.node) && !slices.ContainsFunc(recvs, func(n ast.Node) bool { return within(id, n) }) {
				d.used = true
			}
		}
	}

	var diags []Diagnostic
	allowed := make(map[string]bool)
	for obj, d := range decls {
		if d.used || (isMethod(obj) && ifaceMethods[obj.Name()]) {
			continue
		}
		if _, ok := allow[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		pos := l.Fset.Position(d.node.Pos())
		diags = append(diags, Diagnostic{
			File: l.relFile(pos.Filename), Line: pos.Line, Col: pos.Column, Analyzer: "deadexport",
			Message: d.key + " is exported but nothing outside its declaration calls it from non-test code",
		})
	}
	for key := range allow {
		if !allowed[key] {
			diags = append(diags, Diagnostic{Analyzer: "deadexport", Message: "allow-list entry " + key + " names no unused export"})
		}
	}
	sortDiagnostics(diags)
	return diags
}

func within(id *ast.Ident, n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() }

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// deadExportFixture runs the check over testdata/deadexport, whose
// internal/lib declares the names and whose use package calls some.
func deadExportFixture(t *testing.T, allow map[string]string) (*Loader, []*Unit, []Diagnostic) {
	t.Helper()
	l := fixtureLoader(t)
	units, err := l.Load([]string{filepath.Join("testdata", "deadexport") + "/..."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return l, units, deadExports(l, units, "internal/lint/testdata/deadexport/internal", allow)
}

// TestDeadExportFixture runs the dead-export check over a fixture with an
// unused export, one used only by its package's tests, a method named by
// an interface, and an allow-listed name: only the first two are reported.
func TestDeadExportFixture(t *testing.T) {
	l, units, diags := deadExportFixture(t, map[string]string{"lib.Kept": "the fixture's allow-listed name"})
	matchWants(t, parseWants(t, l, units), diags)
}

// TestDeadExportStaleAllowEntry pins that an allow-list entry must name an
// export the check would otherwise report.
func TestDeadExportStaleAllowEntry(t *testing.T) {
	_, _, diags := deadExportFixture(t, map[string]string{
		"lib.Kept":   "the fixture's allow-listed name",
		"lib.Used":   "called from the fixture's use package, so the entry is stale",
		"lib.Gone":   "declared nowhere",
		"lib.Unused": "would be reported",
	})
	var stale []string
	for _, d := range diags {
		if d.File == "" {
			stale = append(stale, d.Message)
		}
	}
	if len(stale) != 2 || !strings.Contains(stale[0], "lib.Gone") || !strings.Contains(stale[1], "lib.Used") {
		t.Errorf("stale allow-list reports %q, want lib.Gone and lib.Used", stale)
	}
}

// TestTestAPIsHaveReasons pins that every allow-listed test API says why
// it stays exported.
func TestTestAPIsHaveReasons(t *testing.T) {
	for name, reason := range testAPIs {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
}
