package lint

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachKind says why a function under internal/ may stay although no
// committed run enters it.
type reachKind string

const (
	// testAPI: exported for tests, with no production caller. The
	// dead-export check reads these entries too.
	testAPI reachKind = "test API"
	// benchOnly: only the benchmark module (bench/) calls it.
	benchOnly reachKind = "bench-only"
	// unreachable: production calls it, but no run can reach the call.
	unreachable reachKind = "unreachable by construction"
)

type allowEntry struct {
	kind   reachKind
	reason string
}

// allowList is the one reviewed list of functions under internal/ that
// stay although no committed run enters them, keyed "pkg.Func" or
// "pkg.Type.Method". TestReachGate fails on a never-entered function
// missing from it and on an entry some run enters; TestRepoClean exempts
// its test APIs from the dead-export check.
var allowList = map[string]allowEntry{
	"dfs.FS.DegradedRead":                    {benchOnly, "the dfs-ingest-heal workload's degraded read of a whole block"},
	"dfs.FS.ReadBlockUnsafe":                 {benchOnly, "the dfs-ingest-heal workload reads blocks without a copy"},
	"dfs.File.NativeBlocks":                  {benchOnly, "the dfs-ingest-heal workload walks a file's native blocks"},
	"placement.Placement.NativeBlocks":       {benchOnly, "behind dfs.File.NativeBlocks"},
	"mapred.Config.ExpectedDegradedReadTime": {benchOnly, "the sim-paper workload's fidelity metric"},
	"stats.Median":                           {benchOnly, "the benchmark's per-workload medians"},
	"sim.Engine.Steps":                       {benchOnly, "the benchmark's sim.steps row"},
	"sim.Engine.RunUntil":                    {benchOnly, "the benchmark's event-heap probe runs to a horizon"},
	"sim.Engine.Pending":                     {benchOnly, "the benchmark's event-heap probe reads the heap size"},
	"sim.Event.At":                           {testAPI, "netsim's invariant oracle reads when its pending completion fires"},
	"trace.ReadJSONL":                        {testAPI, "reads a trace back for the round-trip fuzz test and the replay tests"},
	"sim.Engine.Stats":                       {unreachable, "read only through runtime.Params.Work, which only tests set"},
	"netsim.Net.Stats":                       {unreachable, "read only through runtime.Params.Work, which only tests set"},
	"minimr.realBackend.ReduceReset":         {unreachable, "the in-process engine has no mid-run failure source, so no reducer is reset"},
}

// testAPIs are the allow-list's test APIs, as the dead-export check
// takes them: name to reason.
func testAPIs() map[string]string {
	out := make(map[string]string)
	for name, e := range allowList {
		if e.kind == testAPI {
			out[name] = e.reason
		}
	}
	return out
}

// TestAllowListEntries pins that every allow-list entry has a kind and
// says why it stays.
func TestAllowListEntries(t *testing.T) {
	for name, e := range allowList {
		switch e.kind {
		case testAPI, benchOnly, unreachable:
		default:
			t.Errorf("allow-list entry %s has kind %q", name, e.kind)
		}
		if strings.TrimSpace(e.reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
	}
}

var reachCoverDir = flag.String("reach.coverdir", "", "coverage directory of the committed runs (scripts/reach.sh); empty skips TestReachGate")

// TestReachGate reads the coverage the committed runs and the named
// failure-path tests wrote (scripts/reach.sh) and fails on every function
// under internal/ that none of them entered and allowList does not name,
// and on every entry naming a function they did enter or none at all. A
// method whose body is empty is skipped: it has no statement to count.
func TestReachGate(t *testing.T) {
	if *reachCoverDir == "" {
		t.Skip("no -reach.coverdir; scripts/reach.sh runs this gate")
	}
	out, err := exec.Command("go", "tool", "covdata", "func", "-i", *reachCoverDir).Output()
	if err != nil {
		t.Fatalf("go tool covdata func: %v", err)
	}
	l := fixtureLoader(t)
	never, err := neverEntered(l.ModPath, l.ModDir, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(never) {
		if _, ok := allowList[key]; !ok {
			t.Errorf("%s: %s is entered by no committed run: delete it, move it into _test.go, give it a run or a named test, or a reviewed allow-list entry", never[key], key)
		}
	}
	for _, key := range sortedKeys(allowList) {
		if _, ok := never[key]; !ok {
			t.Errorf("allow-list entry %s names no never-entered function: some run enters it, or it is gone", key)
		}
	}
}

// neverEntered parses `go tool covdata func` output and returns the
// functions under the module's internal/ at 0.0%, keyed as allowList is,
// with their positions; a function whose body is empty is left out.
func neverEntered(modPath, modDir string, funcs []byte) (map[string]string, error) {
	never := make(map[string]string)
	fset := token.NewFileSet()
	parsed := make(map[string]*ast.File)
	sc := bufio.NewScanner(bytes.NewReader(funcs))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[2] != "0.0%" || !strings.HasPrefix(f[0], modPath+"/internal/") {
			continue
		}
		file, line, ok := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(f[0], modPath+"/"), ":"), ":")
		n, err := strconv.Atoi(line)
		if !ok || err != nil {
			return nil, fmt.Errorf("unparsable covdata line %q", sc.Text())
		}
		if parsed[file] == nil {
			if parsed[file], err = parser.ParseFile(fset, filepath.Join(modDir, file), nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
		}
		if emptyBodyAt(fset, parsed[file], n) {
			continue
		}
		never[path.Base(path.Dir(file))+"."+strings.TrimPrefix(f[1], "*")] = file + ":" + line
	}
	return never, sc.Err()
}

// emptyBodyAt reports whether the function declared on line has a body
// with no statements.
func emptyBodyAt(fset *token.FileSet, f *ast.File, line int) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fset.Position(fd.Pos()).Line == line {
			return fd.Body != nil && len(fd.Body.List) == 0
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
