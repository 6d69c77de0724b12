package lint

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachKind says why a function or block under internal/ may stay
// although no committed run enters it.
type reachKind string

const (
	// testAPI: exported for tests, with no production caller. The
	// dead-export check reads these entries too.
	testAPI reachKind = "test API"
	// benchOnly: only the benchmark module (bench/) calls it.
	benchOnly reachKind = "bench-only"
	// unreachable: production calls it, but no run can reach the call.
	unreachable reachKind = "unreachable by construction"
	// environmentOnly (blocks only): a real deployment reaches it when the
	// operating system or a peer fails or lags, in a way no deterministic
	// test stages.
	environmentOnly reachKind = "environment-only"
	// hostDependent (blocks only): entered only on a CPU with the
	// instructions it dispatches to, so the gate accepts it entered or not.
	hostDependent reachKind = "host-dependent"
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
	"netsim.Flow.Finished":                   {benchOnly, "the benchmark's flow replay steps the engine until a flow has finished"},
	"trace.ReadJSONL":                        {testAPI, "reads a trace back for the round-trip fuzz test and the replay tests"},
	"sim.Engine.Stats":                       {unreachable, "read only through runtime.Params.Work, which only tests set"},
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

// TestAllowListEntries pins that every allow-list entry has a kind its
// list takes and says why it stays.
func TestAllowListEntries(t *testing.T) {
	check := func(list map[string]allowEntry, kinds ...reachKind) {
		for name, e := range list {
			if !slices.Contains(kinds, e.kind) {
				t.Errorf("allow-list entry %s has kind %q", name, e.kind)
			}
			if strings.TrimSpace(e.reason) == "" {
				t.Errorf("allow-list entry %s has no reason", name)
			}
		}
	}
	check(allowList, testAPI, benchOnly, unreachable)
	check(branchAllowList, testAPI, benchOnly, unreachable, environmentOnly, hostDependent)
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

var (
	reachRuns  = flag.String("reach.runs", "", "textfmt coverage profile of the committed runs and named tests (scripts/reach.sh); empty skips TestBranchReach")
	reachTier1 = flag.String("reach.tier1", "", "textfmt coverage profile of the whole tier-1 suite (scripts/reach.sh)")
)

// branchAllowList is the reviewed list of blocks under internal/ that
// stay although TestBranchReach's rules do not hold for them, keyed as
// branchesOf keys them. The gate fails on an entry that names no block,
// and on one (host-dependent ones aside) that a run, or for an error path
// any tier-1 test, enters.
var branchAllowList = map[string]allowEntry{
	// Invariant checks and the guards behind them.
	`runtime.state.launchMap: s.fail(fmt.Errorf("%s: scheduler overcommitted node %d", s.name, id)) return`: {
		unreachable, "every scheduler assigns at most the heartbeat's free map slots"},
	`runtime.state.release: s.fail(fmt.Errorf("%s: node %d released a slot it did not hold", s.name, id)) return`: {
		unreachable, "a slot is released once per launch that took it"},
	`runtime.state.launchReducer: s.fail(fmt.Errorf("%s: reducer launched on node %d with no free reduce slot", s.name, id)) return`: {
		unreachable, "its one caller loops while the node has a free reduce slot"},
	"runtime.state.serveSlave: return #2": {
		unreachable, "launchReducer fails only on its free-slot check, which its caller's loop condition holds"},
	"runtime.state.nextReducerToAssign: return nil #2": {
		unreachable, "the job queue grants a reduce slot only to a job with an unlaunched reducer"},
	`runtime.Run: return nil, fmt.Errorf("%s: %w", st.name, err)`: {
		unreachable, "the Builder's run-end check fails only on a runtime bug: heartbeats run until every job finishes, and every flow has a completion event; TestBuilderRejectsMalformedTraces holds each rule on the Builder itself"},
	`netsim.Net.recompute: panic(fmt.Sprintf("netsim: clock moved from %v to %v over a drained solve", n.instant, n.eng.Now()))`: {
		unreachable, "a drained solve and its completion share one clock instant"},
	`netsim.Net.fill: panic(fmt.Sprintf("netsim: filling not done after %d iterations over %d links", j, len(links)))`: {
		unreachable, "every iteration saturates its minimum's link, which then leaves the loop: a filling ends within one iteration per active link, plus one for flows on unlimited links only"},

	// Errors of steps whose inputs an earlier check already validated.
	`runtime.Run: return nil, fmt.Errorf("%s: %w", p.name(), err) #2`: {
		unreachable, "netsim.New rejects only bandwidths Options.Validate already rejected"},
	`runtime.Run: return nil, fmt.Errorf("%s: %w", p.name(), err) #4`: {
		unreachable, "jobsched.New rejects only settings Options.Validate already rejected"},
	"mapred.prepare: return nil, err #4": {
		unreachable, "dfs.New fails only on a nil cluster or code or a non-positive block size, and prepare passes none"},
	`erasure.New: return nil, fmt.Errorf("erasure: systematizing Vandermonde: %w", err)`: {
		unreachable, "a square Vandermonde matrix of distinct points inverts, for any k the parameter check admits"},
	"erasure.New: return nil, err": {
		unreachable, "the two Vandermonde factors' shapes agree by construction"},
	"erasure.New: return nil, err #2": {
		unreachable, "the parity rows k..n-1 are in range by construction"},
	"dfs.FS.Write: return nil, err": {
		unreachable, "encodeStripes fails only on unequal shards, and Write cuts every shard to the block size"},
	`dfs.FS.encodeStripes: return nil, fmt.Errorf("dfs: encoding stripe %d of %q: %w", s, name, err)`: {
		unreachable, "as dfs.FS.Write: every shard is one block long"},
	"exp.fig5: return nil, err": {
		unreachable, "fig5's points are constants that validate (TestFig5Family)"},

	// Sizes no block reaches.
	`minimr.MapBlock: panic(fmt.Sprintf("minimr: combining a map task of job %q: %v", job.Name, err))`: {
		unreachable, "a map task would have to emit more than 2^31 records"},
	`minimr.grouping.layout: return fmt.Errorf("minimr: %d records to group, at most %d fit", len(gr.ids), math.MaxInt32)`: {
		unreachable, "a map task would have to emit more than 2^31 records"},
	`netsim.Net.indexFlow: panic("netsim: too many flows on one link for an int32 position")`: {
		unreachable, "a link would have to carry more than 2^31 flows"},

	// Test-only settings.
	"runtime.Run: *p.Work = Work{Engine: eng.Stats(), Net: net.Stats()}": {
		unreachable, "only tests set runtime.Params.Work (as sim.Engine.Stats)"},

	// A real deployment's failures.
	"cluster.StartWorker: if attempt >= 9": {
		environmentOnly, "a worker started before its master listens; a test of the retries would wait out their 12.8 s backoff"},
	`cluster.StartWorker: peerLn.Close() return nil, fmt.Errorf("cluster: dialing master %s: %w", opts.MasterAddr, err)`: {
		environmentOnly, "as the retry above, once all ten dials failed"},
	"cluster.StartWorker: time.Sleep(delay) delay *= 2": {
		environmentOnly, "as the retry above"},
	`cluster.Worker.handshake: return fmt.Errorf("cluster: registering: %w", err)`: {
		environmentOnly, "the master's socket dies between accepting the worker and the worker's first write, which the kernel buffers"},

	// The GF(256) kernel tiers.
	"gf256.mulAdd: n = len(src) &^ 31 mulAddAVX2(&t.nib[c], src[:n], dst[:n])": {
		hostDependent, "the AVX2 kernel; TestKernelTiers logs which tiers a host runs"},
	"gf256.xorInto: n = len(src) &^ 31 xorAVX2(src[:n], dst[:n])": {
		hostDependent, "the AVX2 kernel"},
	"gf256.MulAddSlices: n = len(dst) &^ 255 mulAddSlicesGFNI(&t.aff, coeffs, srcs, dst[:n])": {
		hostDependent, "the GFNI/AVX-512 kernel"},
}

// TestBranchReach is the reach gate one level down. It reads the
// coverage profiles scripts/reach.sh writes and sorts every block under
// internal/ that the committed runs and the named tests never entered
// into two classes:
//   - an error path (errorPath) must be entered by some tier-1 test;
//   - every other block must be entered by a committed run or a named
//     test, so it fails here.
//
// A block in a function allowList names is left to TestReachGate. The
// gate also fails on a branchAllowList entry that names no such block.
func TestBranchReach(t *testing.T) {
	if *reachRuns == "" || *reachTier1 == "" {
		t.Skip("no -reach.runs or -reach.tier1; scripts/reach.sh runs this gate")
	}
	l := fixtureLoader(t)
	runs, err := readProfile(l.ModPath, *reachRuns)
	if err != nil {
		t.Fatal(err)
	}
	tier1, err := readProfile(l.ModPath, *reachTier1)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.Load([]string{filepath.Join(l.ModDir, "internal") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	branches, err := branchesOf(l, units, runs)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(branches)) // key to entered
	var nErr, nOther int
	for _, b := range branches {
		entered := runs[b.block] || b.errPath && tier1[b.block]
		keys[b.key] = entered
		if _, ok := allowList[b.fn]; ok || entered {
			continue
		}
		if _, ok := branchAllowList[b.key]; ok {
			continue
		}
		if b.errPath {
			nErr++
			t.Errorf("%s: error path %q is entered by no tier-1 test: give it a test, or a reviewed branch allow-list entry", b.pos, b.key)
			continue
		}
		nOther++
		hint := "delete it, give it a run or a named test in scripts/reach.sh, or a reviewed branch allow-list entry"
		if tier1[b.block] {
			hint = "a tier-1 test enters it: name that test in scripts/reach.sh if it is deterministic"
		}
		t.Errorf("%s: block %q is entered by no committed run and no named test: %s", b.pos, b.key, hint)
	}
	for _, key := range sortedKeys(branchAllowList) {
		entered, ok := keys[key]
		switch {
		case !ok:
			t.Errorf("branch allow-list entry %q names no block: it is gone, or its text changed", key)
		case entered && branchAllowList[key].kind != hostDependent:
			t.Errorf("branch allow-list entry %q names a block a run or, for an error path, a tier-1 test enters: drop the entry", key)
		}
	}
	t.Logf("%d blocks; %d error paths entered by no test, %d other blocks entered by no run", len(branches), nErr, nOther)
}

// profileBlock is one basic block of a textfmt coverage profile, at its
// module-relative file and 1-based line.column span.
type profileBlock struct {
	file                     string
	line0, col0, line1, col1 int
}

// readProfile reads a `go tool covdata textfmt` profile and returns every
// block with at least one statement under the module's internal/, true
// where some counter entered it.
func readProfile(modPath, name string) (map[profileBlock]bool, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	blocks := make(map[profileBlock]bool)
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, modPath+"/internal/")
		if !ok {
			continue
		}
		var b profileBlock
		var stmts, count int
		file, span, ok := strings.Cut(rest, ":")
		if _, err := fmt.Sscanf(span, "%d.%d,%d.%d %d %d", &b.line0, &b.col0, &b.line1, &b.col1, &stmts, &count); !ok || err != nil {
			return nil, fmt.Errorf("%s: unparsable profile line %q", name, line)
		}
		if stmts == 0 {
			continue
		}
		b.file = "internal/" + file
		blocks[b] = blocks[b] || count > 0
	}
	return blocks, nil
}

// branch is one profile block as the gate sees it.
type branch struct {
	block   profileBlock
	pos     string // file:line, for messages only
	fn      string // enclosing function, keyed as allowList is
	key     string // fn, ": ", then the block's text; see branchesOf
	errPath bool
}

// branchesOf keys and classifies every block of the profile, in file and
// line order. A block's key is its enclosing function and its source
// text, comments dropped and white space collapsed, so that the key
// survives edits elsewhere in the file; the k-th block of a function with
// the same text as an earlier one gets " #k" appended.
func branchesOf(l *Loader, units []*Unit, blocks map[profileBlock]bool) ([]branch, error) {
	type fileInfo struct {
		f    *ast.File
		src  []byte
		info *types.Info
		pkg  string
	}
	files := make(map[string]fileInfo)
	for _, u := range units {
		if u.Test {
			continue
		}
		for _, f := range u.Files {
			name := l.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			files[l.relFile(name)] = fileInfo{f, src, u.Info, u.Pkg.Name()}
		}
	}
	sorted := make([]profileBlock, 0, len(blocks))
	for b := range blocks {
		sorted = append(sorted, b)
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line0 != b.line0 {
			return a.line0 < b.line0
		}
		return a.col0 < b.col0
	})
	var out []branch
	seen := make(map[string]int)
	for _, b := range sorted {
		fi, ok := files[b.file]
		if !ok {
			return nil, fmt.Errorf("profile block in %s, which no package under internal/ builds", b.file)
		}
		tf := l.Fset.File(fi.f.Pos())
		from := tf.LineStart(b.line0) + token.Pos(b.col0-1)
		to := tf.LineStart(b.line1) + token.Pos(b.col1-1)
		name, decl := enclosingDecl(fi.f, from)
		if decl == nil {
			return nil, fmt.Errorf("%s:%d: profile block outside any function", b.file, b.line0)
		}
		fn := fi.pkg + "." + name
		key := fn + ": " + blockText(tf, fi.f, fi.src, from, to)
		if seen[key]++; seen[key] > 1 {
			key += fmt.Sprintf(" #%d", seen[key])
		}
		out = append(out, branch{
			block:   b,
			pos:     fmt.Sprintf("%s:%d", b.file, b.line0),
			fn:      fn,
			key:     key,
			errPath: errorPath(fi.info, fi.pkg, decl, from, to),
		})
	}
	return out, nil
}

// enclosingDecl returns the declaration holding pos, a function or a
// package-level variable's function literal, and its name, keyed as
// allowList is: "Func", "Type.Method" or "Var".
func enclosingDecl(f *ast.File, pos token.Pos) (string, ast.Node) {
	for _, d := range f.Decls {
		if d.Pos() > pos || pos >= d.End() {
			continue
		}
		switch d := d.(type) {
		case *ast.FuncDecl:
			return funcKey(d), d
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if vs, ok := s.(*ast.ValueSpec); ok && vs.Pos() <= pos && pos < vs.End() {
					for i, v := range vs.Values {
						if v.Pos() <= pos && pos < v.End() {
							return vs.Names[i].Name, vs
						}
					}
				}
			}
		}
	}
	return "", nil
}

// funcKey names a declared function "Func" or "Type.Method".
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		case *ast.Ident:
			return r.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// blockText returns the source of [from, to) with its comments dropped,
// white space collapsed, and the braces of a block body trimmed.
func blockText(tf *token.File, f *ast.File, src []byte, from, to token.Pos) string {
	text := bytes.Clone(src[tf.Offset(from):tf.Offset(to)])
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Pos() >= from && c.End() <= to {
				for i := tf.Offset(c.Pos()); i < tf.Offset(c.End()); i++ {
					text[i-tf.Offset(from)] = ' '
				}
			}
		}
	}
	s := strings.Join(strings.Fields(string(text)), " ")
	s = strings.TrimSpace(strings.TrimPrefix(s, "{"))
	return strings.TrimSpace(strings.TrimSuffix(s, "}"))
}

// errorPath reports whether the statements that start in [from, to) of
// decl only fail: each returns a non-nil error, calls the runtime's
// state.fail or state.deferFailure, or panics with a package-prefixed
// message (dflint's panicmsg form); a bare return may follow one of them.
func errorPath(info *types.Info, pkg string, decl ast.Node, from, to token.Pos) bool {
	type stmtIn struct {
		s   ast.Stmt
		sig *types.Signature
	}
	var stmts []stmtIn
	var sigs []*types.Signature // of the functions around the node, innermost last
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			sigs = append(sigs, info.Defs[n.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			sigs = append(sigs, info.Types[n].Type.(*types.Signature))
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		case ast.Stmt:
			if n.Pos() >= from && n.Pos() < to {
				stmts = append(stmts, stmtIn{n, sigs[len(sigs)-1]})
				return false
			}
		}
		stack = append(stack, n)
		return true
	})
	if len(stmts) == 0 {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	pass := &Pass{Info: info}
	for i, st := range stmts {
		switch s := st.s.(type) {
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				if i == 0 {
					return false
				}
				continue
			}
			res := st.sig.Results()
			if len(s.Results) != res.Len() {
				return false
			}
			failing := false
			for j, r := range s.Results {
				failing = failing || types.Identical(res.At(j).Type(), errType) && !info.Types[r].IsNil()
			}
			if !failing {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && len(call.Args) == 1 {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					msg, found := leftmostString(pass, call.Args[0])
					if found && hasPrefixAndSpace(msg, pkg+":") {
						continue
					}
				}
				return false
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "/internal/runtime") ||
				(fn.Name() != "fail" && fn.Name() != "deferFailure") {
				return false
			}
		default:
			return false
		}
	}
	return true
}
