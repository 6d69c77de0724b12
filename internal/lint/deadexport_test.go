package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadExports reports every exported func, method, type, const and var,
// and every exported method of an interface, declared in the non-test
// files of the packages under declDir (module-relative) that no non-test
// file of units references outside the name's own declaration. A concrete method also
// counts as used when its type (T or *T) implements a standard-library
// interface that declares it (the library calls it where we cannot see),
// or a module interface one of whose methods of that name non-test Go
// calls. Error, Unwrap, Is and As are exempt by name: errors.Is and
// errors.As call them through interfaces declared inside their bodies.
// Names in allow are exempt too, keyed "pkg.Name" or "pkg.Type.Method";
// an entry naming nothing that would be reported is itself reported.
func deadExports(l *Loader, units []*Unit, declDir string, allow map[string]string) []Diagnostic {
	type decl struct {
		key  string
		node ast.Node // uses inside the declaration itself do not count
		used bool
	}
	decls := make(map[types.Object]*decl)
	var named []*types.Named // the module's non-generic, non-interface types
	for _, u := range units {
		if u.Test {
			continue
		}
		for _, name := range u.Pkg.Scope().Names() {
			if t, ok := u.Pkg.Scope().Lookup(name).Type().(*types.Named); ok && t.TypeParams() == nil && !types.IsInterface(t) {
				named = append(named, t)
			}
		}
		rel := l.relPath(u.PkgPath)
		if !strings.HasPrefix(rel+"/", declDir+"/") {
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
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(id, s, id.Name)
								}
							}
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name, s, s.Name.Name)
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										if id.IsExported() {
											add(id, m, s.Name.Name+"."+id.Name)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// The standard library's interfaces, and the module's interface
	// methods that non-test Go calls.
	var std []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !l.inModule(p.Path()) {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() != nil {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					std = append(std, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	called := make(map[*types.Func]bool)
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
		for id, obj := range u.Info.Uses {
			fn, ok := obj.(*types.Func)
			if ok {
				obj = fn.Origin()
			}
			d := decls[obj]
			if d != nil && (within(id, d.node) || slices.ContainsFunc(recvs, func(n ast.Node) bool { return within(id, n) })) {
				continue
			}
			if d != nil {
				d.used = true
			}
			if ok && fn.Pkg() != nil && l.inModule(fn.Pkg().Path()) && ifaceOf(fn) != nil {
				called[fn] = true
			}
		}
	}
	// reach marks t's methods that implement it's methods, or just the
	// method only when only is not nil, if t or *t implements it.
	reach := func(t types.Type, it *types.Interface, only *types.Func) {
		if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
			return
		}
		for i := range it.NumMethods() {
			if m := it.Method(i); only == nil || m == only {
				obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && decls[fn.Origin()] != nil {
					decls[fn.Origin()].used = true
				}
			}
		}
	}
	for _, t := range named {
		for _, it := range std {
			reach(t, it, nil)
		}
		for m := range called {
			reach(t, ifaceOf(m), m)
		}
	}

	var diags []Diagnostic
	allowed := make(map[string]bool)
	for obj, d := range decls {
		if d.used || (isMethod(obj) && errorProtocol[obj.Name()]) {
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

// errorProtocol names the methods errors.Is, errors.As and fmt find
// through interfaces declared inside their function bodies.
var errorProtocol = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}

func within(id *ast.Ident, n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() }

// ifaceOf is the interface that declares fn, or nil if fn is a func or
// a concrete method.
func ifaceOf(fn *types.Func) *types.Interface {
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		it, _ := r.Type().Underlying().(*types.Interface)
		return it
	}
	return nil
}

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

// TestDeadExportFixture runs the dead-export check over a fixture with
// unused exports (a func and a const), one used only by its package's
// tests, a method named by an interface, a used var and an allow-listed
// name: only the unused and the test-only ones are reported.
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
