package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader returns the test binary's one loader rooted at the
// repository module, so the standard library is type-checked from source
// once, not once per test.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	// Type-check the standard library as a CGO_ENABLED=0 build sees it.
	// Its exported API is the same, and the source importer then does not
	// run cgo over net's files, which took about a second per test binary.
	// The module itself has no cgo files.
	build.Default.CgoEnabled = false
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	return NewLoader(wd)
})

// runFixture loads testdata/<name> and runs one analyzer (with its
// package restriction lifted, since fixtures live under testdata) through
// the full driver, including suppression handling.
func runFixture(t *testing.T, az *Analyzer, name string) (*Loader, []*Unit, []Diagnostic) {
	t.Helper()
	l := fixtureLoader(t)
	units, err := l.Load([]string{filepath.Join("testdata", name)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	cp := *az
	cp.Packages = nil
	return l, units, Run(l, units, []*Analyzer{&cp})
}

// want is one expectation parsed from a `// want "regexp"` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the expectations from every file of the units.
func parseWants(t *testing.T, l *Loader, units []*Unit) []*want {
	t.Helper()
	var wants []*want
	seen := make(map[*ast.File]bool)
	for _, u := range units {
		for _, f := range u.Files {
			if seen[f] {
				continue
			}
			seen[f] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pat, err := strconv.Unquote(strings.TrimSpace(rest))
					if err != nil {
						t.Fatalf("%s: bad want comment %q: %v", l.Fset.Position(c.Pos()), rest, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", l.Fset.Position(c.Pos()), pat, err)
					}
					pos := l.Fset.Position(c.Pos())
					wants = append(wants, &want{file: l.relFile(pos.Filename), line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture asserts that every diagnostic matches a want on its line
// and every want is matched: the analyzer fires exactly where the fixture
// says and stays silent everywhere else (including the clean files).
func checkFixture(t *testing.T, az *Analyzer, name string) {
	t.Helper()
	l, units, diags := runFixture(t, az, name)
	matchWants(t, parseWants(t, l, units), diags)
}

// matchWants asserts that every diagnostic matches a want on its line and
// every want is matched by a diagnostic.
func matchWants(t *testing.T, wants []*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q not matched by any diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { checkFixture(t, Determinism, "determinism") }
func TestMaporderFixture(t *testing.T)    { checkFixture(t, Maporder, "maporder") }
func TestErrsinkFixture(t *testing.T)     { checkFixture(t, Errsink, "errsink") }
func TestNetboundaryFixture(t *testing.T) { checkFixture(t, Netboundary, "netboundary") }
func TestFloateqFixture(t *testing.T)     { checkFixture(t, Floateq, "floateq") }
func TestPanicmsgFixture(t *testing.T)    { checkFixture(t, Panicmsg, "panicmsg") }
func TestSerialFixture(t *testing.T)      { checkFixture(t, Serial, "serial") }

// TestSuppression drives the suppression machinery over a fixture with
// two valid directives (above-line and same-line), one with a missing
// reason, and one naming an unknown analyzer. The valid ones silence
// errsink; the malformed ones are reported and do not suppress.
func TestSuppression(t *testing.T) {
	_, _, diags := runFixture(t, Errsink, "suppress")
	var lintDiags, errsinkDiags []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			lintDiags = append(lintDiags, d)
		case "errsink":
			errsinkDiags = append(errsinkDiags, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
	if len(lintDiags) != 2 || len(errsinkDiags) != 2 {
		t.Fatalf("got %d lint + %d errsink diagnostics, want 2 + 2:\n%v", len(lintDiags), len(errsinkDiags), diags)
	}
	if !strings.Contains(lintDiags[0].Message, "no reason") {
		t.Errorf("first lint diagnostic %q, want missing-reason report", lintDiags[0].Message)
	}
	if !strings.Contains(lintDiags[1].Message, "unknown analyzer nosuchcheck") {
		t.Errorf("second lint diagnostic %q, want unknown-analyzer report", lintDiags[1].Message)
	}
	// Each surviving errsink finding sits directly under a malformed
	// directive; the two well-formed directives suppressed theirs.
	for i, d := range errsinkDiags {
		if d.Line != lintDiags[i].Line+1 {
			t.Errorf("errsink diagnostic at line %d, want right under the malformed directive at line %d", d.Line, lintDiags[i].Line)
		}
	}
}

// TestJSONShape pins the -json output format so downstream diffs stay
// stable.
func TestJSONShape(t *testing.T) {
	diags := []Diagnostic{{
		File:     "internal/sim/engine.go",
		Line:     3,
		Col:      7,
		Analyzer: "floateq",
		Message:  "exact floating-point == comparison",
	}}
	got, err := EncodeJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `[
  {
    "file": "internal/sim/engine.go",
    "line": 3,
    "col": 7,
    "analyzer": "floateq",
    "message": "exact floating-point == comparison"
  }
]
`
	if string(got) != wantJSON {
		t.Errorf("JSON shape changed:\ngot:\n%s\nwant:\n%s", got, wantJSON)
	}
	empty, err := EncodeJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]\n" {
		t.Errorf("empty encoding %q, want %q", empty, "[]\n")
	}
}

// TestAppliesTo pins the package restriction of the determinism analyzer
// to the simulation packages.
func TestAppliesTo(t *testing.T) {
	for path, want := range map[string]bool{
		"internal/sim":       true,
		"internal/sim/sub":   true,
		"internal/runtime":   true,
		"internal/mapred":    true,
		"internal/minimr":    true,
		"internal/sched":     true,
		"internal/exp":       true,
		"internal/topology":  true,
		"internal/netsim":    true,
		"internal/simulator": false,
		"internal/trace":     false,
		"internal/stats":     false,
		"cmd/dfexp":          false,
		"":                   false,
	} {
		if got := Determinism.appliesTo(path); got != want {
			t.Errorf("determinism.appliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	// The serial core is narrower: the engines and the experiment runner
	// that run work in parallel stay outside it.
	for path, want := range map[string]bool{
		"internal/sim":      true,
		"internal/runtime":  true,
		"internal/mapred":   true,
		"internal/sched":    true,
		"internal/netsim":   true,
		"internal/topology": true,
		"internal/minimr":   false,
		"internal/exp":      false,
		"internal/cluster":  false,
		"internal/dfs":      false,
	} {
		if got := Serial.appliesTo(path); got != want {
			t.Errorf("serial.appliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	if !Maporder.appliesTo("internal/anything") {
		t.Error("maporder must apply to every package")
	}
	// Exempt inverts the restriction: netboundary covers everything
	// except the real-I/O packages.
	for path, want := range map[string]bool{
		"internal/cluster":     false,
		"internal/cluster/sub": false,
		"cmd":                  false,
		"cmd/dfmaster":         false,
		"cmd/dfworker":         false,
		"internal/sim":         true,
		"internal/trace":       true,
		"":                     true,
	} {
		if got := Netboundary.appliesTo(path); got != want {
			t.Errorf("netboundary.appliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestAnalyzerRoster pins the suite: at least six analyzers, sorted by
// name, each documented.
func TestAnalyzerRoster(t *testing.T) {
	azs := Analyzers()
	if len(azs) < 6 {
		t.Fatalf("suite has %d analyzers, want >= 6", len(azs))
	}
	for i, a := range azs {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %d is missing name, doc, or run", i)
		}
		if i > 0 && azs[i-1].Name >= a.Name {
			t.Errorf("analyzers out of order: %s before %s", azs[i-1].Name, a.Name)
		}
	}
}

// TestRepoClean runs the full suite over the real tree: the repository
// must stay lint-clean, with intentional sites annotated. This is the
// same invariant CI enforces via `go run ./cmd/dflint ./...`. The tree
// (bench/ included, which the walk loads as one more package) must also
// have no dead export: every exported name under internal/ has a non-test
// caller outside its declaration, or is a test API on allowList.
func TestRepoClean(t *testing.T) {
	l := fixtureLoader(t)
	units, err := l.Load([]string{l.ModDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, units, Analyzers())
	for _, d := range diags {
		t.Errorf("repository not lint-clean: %s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or annotate intentional sites with //lint:ignore <analyzer> <reason>")
	}
	dead := deadExports(l, units, "internal", testAPIs())
	for _, d := range dead {
		t.Errorf("dead export: %s", d)
	}
	if len(dead) > 0 {
		t.Log("delete the name, move it into its package's _test.go, or give allowList a test-API entry with a reason to keep it")
	}
}

// TestDiagnosticString pins the human-readable diagnostic format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 12, Col: 4, Analyzer: "maporder", Message: "map iteration"}
	if got, want := d.String(), "a/b.go:12:4: maporder: map iteration"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLoaderRejectsOutsideModule ensures patterns cannot escape the
// module root.
func TestLoaderRejectsOutsideModule(t *testing.T) {
	l := fixtureLoader(t)
	if _, err := l.Load([]string{string(filepath.Separator)}); err == nil {
		t.Error("loading / succeeded, want error")
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{File: "internal/sim/engine.go", Line: 129, Col: 13, Analyzer: "floateq", Message: "exact comparison"}
	fmt.Println(d)
	// Output: internal/sim/engine.go:129:13: floateq: exact comparison
}
