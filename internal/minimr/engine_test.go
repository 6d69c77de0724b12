package minimr

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

// mustLRC builds an LRC code for the test's known-good parameters.
func mustLRC(t testing.TB, k, l, g int) *erasure.LRC {
	t.Helper()
	c, err := erasure.NewLRC(k, l, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const _testBlocks = 60

// testbedFS builds a scaled testbed: 12 slaves in 3 racks, (12,10) code,
// 64 KB blocks, round-robin placement, and a block-aligned corpus.
func testbedFS(t *testing.T, seed int64) (*dfs.FS, []byte) {
	t.Helper()
	cluster := topology.MustNew(topology.Config{
		Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	fs, err := dfs.New(cluster, erasure.MustNew(12, 10), TestbedBlockSize,
		placement.RoundRobin{}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(_testBlocks, TestbedBlockSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	return fs, corpus
}

func testOpts(kind sched.Kind) Options {
	return Options{
		Scheduler:           kind,
		RackBps:             TestbedRackBps,
		OutOfBandHeartbeats: true,
		Seed:                1,
	}
}

func wantCounts(counts map[string]int) map[string]string {
	out := make(map[string]string, len(counts))
	for k, v := range counts {
		out[k] = strconv.Itoa(v)
	}
	return out
}

// TestEDFThresholdReadsLocalGroup: the harness hands EDF a degraded-read
// threshold that counts the blocks one degraded read fetches, so an
// LRC(10,2,2) store gives half the threshold of a Reed-Solomon store of the
// same width, RS(14,10).
func TestEDFThresholdReadsLocalGroup(t *testing.T) {
	threshold := func(code erasure.Coder) float64 {
		t.Helper()
		cluster := topology.MustNew(topology.Config{Nodes: 16, Racks: 4, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
		fs, err := dfs.New(cluster, code, 64, nil, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write("in", bytes.Repeat([]byte("a b\n"), 160)); err != nil {
			t.Fatal(err)
		}
		h, err := NewHarness("minimr", fs, testOpts(sched.KindEDF), []Job{WordCountJob("in", 1)})
		if err != nil {
			t.Fatal(err)
		}
		return h.Params.DegradedReadTime
	}
	rs, lrc := threshold(erasure.MustNew(14, 10)), threshold(mustLRC(t, 10, 2, 2))
	if rs <= 0 || math.Abs(lrc-rs/2) > 1e-12*rs {
		t.Fatalf("LRC(10,2,2) threshold %v, want half of RS(14,10)'s %v", lrc, rs)
	}
}

func TestWordCountCorrectNormalMode(t *testing.T) {
	fs, corpus := testbedFS(t, 1)
	rep, err := Run(fs, testOpts(sched.KindLF), []Job{WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatalf("WordCount output diverges from ground truth (%d vs %d keys)",
			len(rep.Outputs[0]), len(want))
	}
	if len(rep.Failed) != 0 {
		t.Fatal("normal mode must have no failed nodes")
	}
	if rep.Jobs[0].Runtime() <= 0 {
		t.Fatal("no runtime recorded")
	}
}

func TestWordCountCorrectUnderFailureBothSchedulers(t *testing.T) {
	// The central correctness claim: a node failure changes *when* blocks
	// are read (degraded reads, reconstructed via Reed-Solomon) but never
	// *what* the job computes — under every scheduler.
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindBDF, sched.KindEDF} {
		fs, corpus := testbedFS(t, 2)
		fs.Cluster().FailNode(3)
		rep, err := Run(fs, testOpts(kind), []Job{WordCountJob("input.txt", 8)})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		want := wantCounts(workload.CountWords(corpus))
		if !reflect.DeepEqual(rep.Outputs[0], want) {
			t.Fatalf("%v: output wrong under failure", kind)
		}
		deg := rep.Jobs[0].CountByClass()[sched.ClassDegraded]
		if deg == 0 {
			t.Fatalf("%v: no degraded tasks despite failure", kind)
		}
		// Exactly the native blocks held by the failed node are degraded.
		file, err := fs.File("input.txt")
		if err != nil {
			t.Fatal(err)
		}
		wantDeg := 0
		for _, b := range file.Placement.NodeBlocks(3) {
			if b.Index < fs.Code().K() {
				wantDeg++
			}
		}
		if deg != wantDeg {
			t.Fatalf("%v: degraded tasks = %d, want %d", kind, deg, wantDeg)
		}
	}
}

// TestCombinerKeepsOutputs: WordCount's combiner changes what crosses
// the shuffle, never what the job computes — under LF and EDF with a
// failed node — and it shuffles less.
func TestCombinerKeepsOutputs(t *testing.T) {
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindEDF} {
		run := func(combine bool) *Report {
			fs, _ := testbedFS(t, 13)
			fs.Cluster().FailNode(4)
			job := WordCountJob("input.txt", 8)
			if !combine {
				job.Combine = nil
			}
			rep, err := Run(fs, testOpts(kind), []Job{job})
			if err != nil {
				t.Fatalf("%v combine=%v: %v", kind, combine, err)
			}
			return rep
		}
		combined, raw := run(true), run(false)
		if !reflect.DeepEqual(combined.Outputs, raw.Outputs) {
			t.Fatalf("%v: outputs differ with the combiner (%d keys) and without (%d)",
				kind, len(combined.Outputs[0]), len(raw.Outputs[0]))
		}
		if combined.BytesMoved >= raw.BytesMoved {
			t.Fatalf("%v: %.0f bytes moved with the combiner, %.0f without", kind, combined.BytesMoved, raw.BytesMoved)
		}
	}
}

func TestGrepAndLineCountCorrect(t *testing.T) {
	fs, corpus := testbedFS(t, 3)
	fs.Cluster().FailNode(0)
	jobs := []Job{
		GrepJob("input.txt", "whale", 8),
		LineCountJob("input.txt", 8),
	}
	jobs[1].SubmitAt = 1
	rep, err := Run(fs, testOpts(sched.KindEDF), jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantGrep := wantCounts(workload.GrepLines(corpus, "whale"))
	if !reflect.DeepEqual(rep.Outputs[0], wantGrep) {
		t.Fatalf("Grep output wrong: %d vs %d keys", len(rep.Outputs[0]), len(wantGrep))
	}
	if len(wantGrep) == 0 {
		t.Fatal("test corpus should contain 'whale' lines")
	}
	wantLines := wantCounts(workload.CountLines(corpus))
	if !reflect.DeepEqual(rep.Outputs[1], wantLines) {
		t.Fatalf("LineCount output wrong: %d vs %d keys", len(rep.Outputs[1]), len(wantLines))
	}
}

func TestEDFBeatsLFOnTestbed(t *testing.T) {
	runOne := func(kind sched.Kind) *Report {
		fs, _ := testbedFS(t, 4)
		fs.Cluster().FailNode(5)
		rep, err := Run(fs, testOpts(kind), []Job{WordCountJob("input.txt", 8)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	lf := runOne(sched.KindLF)
	edf := runOne(sched.KindEDF)
	if edf.Jobs[0].Runtime() >= lf.Jobs[0].Runtime() {
		t.Fatalf("EDF runtime %.1f not below LF %.1f",
			edf.Jobs[0].Runtime(), lf.Jobs[0].Runtime())
	}
	if edf.Jobs[0].MeanDegradedRuntime() >= lf.Jobs[0].MeanDegradedRuntime() {
		t.Fatalf("EDF degraded-task runtime %.1f not below LF %.1f",
			edf.Jobs[0].MeanDegradedRuntime(), lf.Jobs[0].MeanDegradedRuntime())
	}
}

func TestMapOnlyJob(t *testing.T) {
	fs, corpus := testbedFS(t, 5)
	job := Job{
		Name:  "probe",
		Input: "input.txt",
		Map: func(block []byte, emit func(k, v string)) {
			emit("bytes"+strconv.Itoa(len(block)), "seen")
		},
		MapCost: Cost{Fixed: 1},
	}
	rep, err := Run(fs, testOpts(sched.KindLF), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].MapPhaseEnd != rep.Jobs[0].FinishTime {
		t.Fatal("map-only job must end with its map phase")
	}
	if rep.Outputs[0]["bytes"+strconv.Itoa(TestbedBlockSize)] != "seen" {
		t.Fatal("mapper did not observe full blocks")
	}
	_ = corpus
}

func TestValidationErrors(t *testing.T) {
	fs, _ := testbedFS(t, 6)
	good := WordCountJob("input.txt", 4)
	if _, err := Run(nil, testOpts(sched.KindLF), []Job{good}); err == nil {
		t.Fatal("nil fs must fail")
	}
	if _, err := Run(fs, testOpts(sched.KindLF), nil); err == nil {
		t.Fatal("no jobs must fail")
	}
	if _, err := Run(fs, Options{RackBps: -1}, []Job{good}); err == nil {
		t.Fatal("negative bandwidth must fail")
	}
	bad := []func(*Job){
		func(j *Job) { j.Input = "" },
		func(j *Job) { j.Input = "missing" },
		func(j *Job) { j.Map = nil },
		func(j *Job) { j.Reduce = nil },
		func(j *Job) { j.NumReducers = 0 },
		func(j *Job) { j.SubmitAt = -1 },
		func(j *Job) { j.MapCost.PerMB = -1 },
	}
	for i, mutate := range bad {
		j := WordCountJob("input.txt", 4)
		mutate(&j)
		if _, err := Run(fs, testOpts(sched.KindLF), []Job{j}); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	// Out-of-order submissions.
	j1 := WordCountJob("input.txt", 4)
	j1.SubmitAt = 10
	j2 := GrepJob("input.txt", "the", 4)
	if _, err := Run(fs, testOpts(sched.KindLF), []Job{j1, j2}); err == nil {
		t.Fatal("decreasing SubmitAt must fail")
	}
}

func TestMultiJobFIFOOnTestbed(t *testing.T) {
	fs, _ := testbedFS(t, 7)
	fs.Cluster().FailNode(2)
	jobs := []Job{
		WordCountJob("input.txt", 8),
		GrepJob("input.txt", "the", 8),
		LineCountJob("input.txt", 8),
	}
	jobs[1].SubmitAt = 1
	jobs[2].SubmitAt = 2
	rep, err := Run(fs, testOpts(sched.KindEDF), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 || len(rep.Outputs) != 3 {
		t.Fatalf("jobs = %d outputs = %d", len(rep.Jobs), len(rep.Outputs))
	}
	if rep.Jobs[0].FirstMapLaunch > rep.Jobs[1].FirstMapLaunch {
		t.Fatal("FIFO order violated")
	}
	if rep.Makespan <= 0 || rep.BytesMoved <= 0 {
		t.Fatal("aggregates missing")
	}
}

// testbedMix is the paper's Fig. 9b job mix over the test corpus, eight
// reducers each, submitted one virtual second apart.
func testbedMix() []Job {
	jobs := []Job{WordCountJob("input.txt", 8), GrepJob("input.txt", "whale", 8), LineCountJob("input.txt", 8)}
	jobs[1].SubmitAt, jobs[2].SubmitAt = 1, 2
	return jobs
}

// TestDeterminism: the same seed gives the same Report and the same JSONL
// trace bytes whatever GOMAXPROCS is, so neither the width of the map
// lane nor the wall-clock order its work finishes in reaches a result.
func TestDeterminism(t *testing.T) {
	run := func(procs int) (*Report, []byte) {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		fs, _ := testbedFS(t, 8)
		fs.Cluster().FailNode(1)
		var out bytes.Buffer
		sink := trace.NewJSONL(&out)
		opts := testOpts(sched.KindEDF)
		opts.Trace = sink
		rep, err := Run(fs, opts, testbedMix())
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return rep, out.Bytes()
	}
	wantRep, wantTrace := run(1)
	for _, procs := range []int{2, 4} {
		rep, tr := run(procs)
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("GOMAXPROCS %d: report differs from GOMAXPROCS 1's", procs)
		}
		if !bytes.Equal(tr, wantTrace) {
			t.Errorf("GOMAXPROCS %d: %d trace bytes differ from GOMAXPROCS 1's %d", procs, len(tr), len(wantTrace))
		}
	}
}

// cancelOn is a trace sink that cancels a run at its first event of one
// type.
type cancelOn struct {
	typ    trace.Type
	cancel context.CancelFunc
}

func (c cancelOn) Emit(e trace.Event) {
	if e.Type == c.typ {
		c.cancel()
	}
}

// TestNoWorkerLeak: no lane goroutine outlives the run, whether it
// finished, was cancelled with map and reduce work still queued, or
// failed on a panicking map function.
func TestNoWorkerLeak(t *testing.T) {
	fs, _ := testbedFS(t, 8)
	fs.Cluster().FailNode(1)
	before := goruntime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// A lane goroutine that called Done may not have returned yet; a
		// leaked one never does.
		for wait := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("after %s: %d goroutines, %d before", what, goruntime.NumGoroutine(), before)
			}
		}
	}

	if _, err := Run(fs, testOpts(sched.KindEDF), testbedMix()); err != nil {
		t.Fatal(err)
	}
	settled("a Run")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOpts(sched.KindEDF)
	opts.Trace = cancelOn{trace.EvReduceStart, cancel}
	if _, err := RunContext(ctx, fs, opts, testbedMix()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	settled("a cancelled RunContext")

	boom := WordCountJob("input.txt", 8)
	boom.Map = func([]byte, func(k, v string)) { panic("minimr: test map function fails") }
	if _, err := Run(fs, testOpts(sched.KindEDF), []Job{boom}); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("run with a panicking map function returned %v", err)
	}
	settled("a Run whose map function panicked")
}

func TestCostSeconds(t *testing.T) {
	c := Cost{Fixed: 2, PerMB: 3}
	if got := c.Seconds(2e6); got != 8 {
		t.Fatalf("Seconds = %v, want 8", got)
	}
}

func TestPartitionOfStable(t *testing.T) {
	// Same key always lands on the same reducer, and partitions spread.
	seen := map[int]bool{}
	for _, k := range []string{"a", "b", "c", "whale", "the", "ocean", "ship", "storm"} {
		p1 := PartitionOf(k, 8)
		p2 := PartitionOf(k, 8)
		if p1 != p2 || p1 < 0 || p1 >= 8 {
			t.Fatalf("PartitionOf(%q) unstable or out of range", k)
		}
		seen[p1] = true
	}
	if len(seen) < 3 {
		t.Fatalf("partitioning too concentrated: %v", seen)
	}
}

func TestWordCountOverLRC(t *testing.T) {
	// The engine is code-agnostic: run WordCount over an LRC(10,2,2) DFS
	// with a failed node. Degraded reads use the local repair group (5
	// blocks instead of k=10), and the output stays bit-identical.
	cluster := topology.MustNew(topology.Config{
		Nodes: 14, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	code := mustLRC(t, 10, 2, 2)
	fs, err := dfs.New(cluster, code, TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(40, TestbedBlockSize, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	cluster.FailNode(2)
	rep, err := Run(fs, testOpts(sched.KindEDF), []Job{WordCountJob("input.txt", 4)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatal("LRC-backed WordCount output wrong")
	}
	if deg := rep.Jobs[0].CountByClass()[sched.ClassDegraded]; deg == 0 {
		t.Fatal("expected degraded tasks")
	}

	// Compare network volume against an RS(14,10) run of the same shape:
	// LRC's local repairs move roughly half the degraded-read bytes.
	rsCluster := topology.MustNew(topology.Config{
		Nodes: 14, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	rsFS, err := dfs.New(rsCluster, erasure.MustNew(14, 10), TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsFS.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	rsCluster.FailNode(2)
	rsRep, err := Run(rsFS, testOpts(sched.KindEDF), []Job{WordCountJob("input.txt", 4)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesMoved >= rsRep.BytesMoved {
		t.Fatalf("LRC run moved %.0f bytes, RS moved %.0f — local repair should be cheaper",
			rep.BytesMoved, rsRep.BytesMoved)
	}
}

func TestReducePhaseOrdering(t *testing.T) {
	fs, _ := testbedFS(t, 11)
	rep, err := Run(fs, testOpts(sched.KindLF), []Job{WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if len(jr.Reduces) != 8 {
		t.Fatalf("reduces = %d", len(jr.Reduces))
	}
	for _, r := range jr.Reduces {
		if r.FinishTime < jr.MapPhaseEnd {
			t.Fatal("reduce finished before map phase end")
		}
		if r.LaunchTime > jr.MapPhaseEnd {
			t.Fatal("reducers should launch early (before map phase ends)")
		}
	}
	if jr.MeanReduceRuntime() <= 0 {
		t.Fatal("reduce runtimes missing")
	}
}

func TestGrepShufflesLessThanLineCount(t *testing.T) {
	// The paper picks Grep/LineCount to contrast shuffle volume:
	// LineCount emits every line, Grep only matching lines.
	fs, _ := testbedFS(t, 12)
	rep, err := Run(fs, testOpts(sched.KindLF), []Job{GrepJob("input.txt", "whale", 8)})
	if err != nil {
		t.Fatal(err)
	}
	grepBytes := rep.BytesMoved
	fs2, _ := testbedFS(t, 12)
	rep2, err := Run(fs2, testOpts(sched.KindLF), []Job{LineCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if grepBytes >= rep2.BytesMoved {
		t.Fatalf("Grep moved %.0f bytes, LineCount %.0f — expected less", grepBytes, rep2.BytesMoved)
	}
}

func TestJobCostsMatchTableOneOrdering(t *testing.T) {
	// Per-block map costs must preserve Table I's ordering:
	// Grep < WordCount < LineCount.
	wc := WordCountJob("x", 1).MapCost.Seconds(float64(TestbedBlockSize))
	gr := GrepJob("x", "y", 1).MapCost.Seconds(float64(TestbedBlockSize))
	lc := LineCountJob("x", 1).MapCost.Seconds(float64(TestbedBlockSize))
	if !(gr < wc && wc < lc) {
		t.Fatalf("cost ordering wrong: grep=%.1f wordcount=%.1f linecount=%.1f", gr, wc, lc)
	}
	// And absolute values sit near the paper's 64 MB-block runtimes.
	if wc < 25 || wc > 36 {
		t.Fatalf("WordCount per-block cost %.1f s, want ~30.9 s", wc)
	}
	if gr < 9 || gr > 15 {
		t.Fatalf("Grep per-block cost %.1f s, want ~11.7 s", gr)
	}
	if lc < 30 || lc > 42 {
		t.Fatalf("LineCount per-block cost %.1f s, want ~35.9 s", lc)
	}
}

// TestPlanInputPlansWholeFanIn: PlanInput attaches the block's real bytes
// to the Healer's plan, decoded from the planned primaries of a degraded
// read whether or not spares join them (runtime.TestHealerPlanInput holds
// the plan itself).
func TestPlanInputPlansWholeFanIn(t *testing.T) {
	fs, _ := testbedFS(t, 8)
	fs.Cluster().FailNode(3)
	opts := testOpts(sched.KindLF)
	jobs := []Job{WordCountJob("input.txt", 8)}
	h, err := NewHarness("minimr", fs, opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := newRealBackend(h, jobs)
	defer b.stop()
	task := slices.IndexFunc(h.RJobs[0].Tasks, func(s sched.TaskSpec) bool { return s.Holder == 3 })
	if task < 0 {
		t.Fatal("failed node held no native block; scenario is vacuous")
	}
	want, err := fs.ReadBlockUnsafe("input.txt", h.Healer.TaskBlock(task))
	if err != nil {
		t.Fatal(err)
	}
	// (12,10) with one loss leaves 11 survivors: at most one spare.
	for _, budget := range []runtime.SpareBudget{{}, {Fixed: 1, PerPrimary: 1}} {
		plan, err := b.PlanInput(0, task, sched.ClassDegraded, 0, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plan.Input.([]byte), want) {
			t.Fatalf("budget %+v (%d spares): degraded read did not reconstruct the block", budget, plan.Spares)
		}
	}
}
