package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

const testBlocks = 60

// testbedFS builds the scaled testbed the in-process engine tests use:
// 12 slaves in 3 racks, (12,10) code, 64 KB blocks, round-robin
// placement, block-aligned corpus.
func testbedFS(t *testing.T, seed int64) (*dfs.FS, []byte) {
	t.Helper()
	clu := topology.MustNew(topology.Config{
		Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	fs, err := dfs.New(clu, erasure.MustNew(12, 10), minimr.TestbedBlockSize,
		placement.RoundRobin{}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(testBlocks, minimr.TestbedBlockSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	return fs, corpus
}

func engineOpts(sink trace.Sink) minimr.Options {
	return minimr.Options{
		Scheduler:           sched.KindLF,
		RackBps:             minimr.TestbedRackBps,
		OutOfBandHeartbeats: true,
		Seed:                1,
		Trace:               sink,
	}
}

func wantCounts(counts map[string]int) map[string]string {
	out := make(map[string]string, len(counts))
	for k, v := range counts {
		out[k] = strconv.Itoa(v)
	}
	return out
}

// buildResult replays a recorded single-run trace into its Result.
func buildResult(t *testing.T, events []trace.Event) *runtime.Result {
	t.Helper()
	b := runtime.NewBuilder()
	for _, e := range events {
		b.Consume(&e)
	}
	res, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoopbackWordCountMatchesInProcess is the end-to-end equivalence
// claim: a WordCount over the (12,10)-coded DFS with one failed node,
// executed across real TCP workers, produces byte-identical output to
// the in-process engine on the same DFS contents — and since both draw
// their degraded-read sources from the same seeded RNG, the identical
// virtual schedule too.
func TestLoopbackWordCountMatchesInProcess(t *testing.T) {
	fs, corpus := testbedFS(t, 2)
	fs.Cluster().FailNode(3)
	mem := &trace.Memory{}
	l, err := StartLocal(fs, MasterOptions{
		// Generous real-failure deadline: nothing dies in this test, and
		// a 1-CPU CI runner can stall the whole process for a while.
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(mem),
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth and in-process reference over identical DFS contents.
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatalf("cluster output diverges from ground truth (%d vs %d keys)",
			len(rep.Outputs[0]), len(want))
	}
	refFS, _ := testbedFS(t, 2)
	refFS.Cluster().FailNode(3)
	ref, err := minimr.Run(refFS, engineOpts(nil), []minimr.Job{minimr.WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outputs[0], ref.Outputs[0]) {
		t.Fatal("cluster output diverges from the in-process engine")
	}
	if rep.Makespan != ref.Makespan {
		t.Fatalf("virtual schedules diverge: cluster makespan %v, in-process %v", rep.Makespan, ref.Makespan)
	}
	if rep.BytesMoved != ref.BytesMoved {
		t.Fatalf("virtual network volume diverges: cluster %v, in-process %v", rep.BytesMoved, ref.BytesMoved)
	}
	deg := rep.Jobs[0].CountByClass()[sched.ClassDegraded]
	if deg == 0 {
		t.Fatal("no degraded tasks despite the failed node")
	}

	// The merged trace stream (virtual events interleaved with the
	// workers' wire events) rebuilds the same result.
	events := mem.Events()
	res := buildResult(t, events)
	if res.Scheduler != rep.Scheduler {
		t.Fatalf("rebuilt scheduler %q != %q", res.Scheduler, rep.Scheduler)
	}
	if res.Makespan != rep.Makespan {
		t.Fatalf("rebuilt makespan %v != %v", res.Makespan, rep.Makespan)
	}
	if res.BytesMoved != rep.BytesMoved {
		t.Fatalf("rebuilt bytes moved %v != %v", res.BytesMoved, rep.BytesMoved)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Runtime() != rep.Jobs[0].Runtime() {
		t.Fatal("rebuilt job results diverge from the report")
	}

	// The wire events themselves must be present: 11 workers joined, and
	// every map task really ran on a worker.
	byType := make(map[trace.Type]int)
	for _, e := range events {
		byType[e.Type]++
	}
	if byType[trace.EvWorkerJoin] != 11 {
		t.Fatalf("worker-join events = %d, want 11", byType[trace.EvWorkerJoin])
	}
	if byType[trace.EvWireMap] != testBlocks {
		t.Fatalf("wire-map events = %d, want %d", byType[trace.EvWireMap], testBlocks)
	}
	if byType[trace.EvWireReduce] != 8 {
		t.Fatalf("wire-reduce events = %d, want 8", byType[trace.EvWireReduce])
	}
	if byType[trace.EvWireFetch] == 0 || byType[trace.EvWireShuffle] == 0 {
		t.Fatal("no wire fetch/shuffle events recorded")
	}
}

// TestLoopbackHedgedWordCountMatchesInProcess pins the hedged fan-in on
// the real TCP backend: with one failed node and an eager spare (Δ=1),
// every degraded map races k+1 peer fetches, the worker decodes from the
// first k and really cancels the loser's connection — yet the output
// stays byte-identical to ground truth (any k shards reconstruct the
// same bytes) and the virtual schedule matches the in-process engine's
// hedged run exactly.
func TestLoopbackHedgedWordCountMatchesInProcess(t *testing.T) {
	fs, corpus := testbedFS(t, 2)
	fs.Cluster().FailNode(3)
	mem := &trace.Memory{}
	opts := engineOpts(mem)
	opts.Hedge = runtime.HedgePolicy{Extra: 1}
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         opts,
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatalf("hedged cluster output diverges from ground truth (%d vs %d keys)",
			len(rep.Outputs[0]), len(want))
	}

	refFS, _ := testbedFS(t, 2)
	refFS.Cluster().FailNode(3)
	refOpts := engineOpts(nil)
	refOpts.Hedge = runtime.HedgePolicy{Extra: 1}
	ref, err := minimr.Run(refFS, refOpts, []minimr.Job{minimr.WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outputs[0], ref.Outputs[0]) {
		t.Fatal("hedged cluster output diverges from the in-process engine")
	}
	if rep.Makespan != ref.Makespan || rep.BytesMoved != ref.BytesMoved || rep.WastedBytes != ref.WastedBytes {
		t.Fatalf("hedged virtual schedules diverge: cluster (%v, %v, %v), in-process (%v, %v, %v)",
			rep.Makespan, rep.BytesMoved, rep.WastedBytes,
			ref.Makespan, ref.BytesMoved, ref.WastedBytes)
	}

	// The hedged fan-ins recorded per-read latency distributions: every
	// degraded task holds exactly k winning flow latencies.
	deg := 0
	for _, task := range rep.Jobs[0].Tasks {
		if task.Class != sched.ClassDegraded {
			continue
		}
		deg++
		if len(task.FlowLatencies) != 10 {
			t.Fatalf("degraded task %d recorded %d flow latencies, want k=10",
				task.Task, len(task.FlowLatencies))
		}
	}
	if deg == 0 {
		t.Fatal("no degraded tasks despite the failed node")
	}
	q := stats.Quantiles(rep.Jobs[0].DegradedFlowLatencies(), 0.5, 0.99)
	if len(q) != 2 || q[0] <= 0 || q[1] < q[0] {
		t.Fatalf("implausible flow-latency quantiles %v", q)
	}

	// The merged trace stream carries the flow-latency events and
	// rebuilds the same waste accounting.
	events := mem.Events()
	lat := 0
	for _, e := range events {
		if e.Type == trace.EvFlowLatency {
			lat++
		}
	}
	// k won + 1 lost per degraded fan-in.
	if lat != deg*11 {
		t.Fatalf("flow-latency events = %d, want %d (11 per degraded read)", lat, deg*11)
	}
	res := buildResult(t, events)
	if res.WastedBytes != rep.WastedBytes {
		t.Fatalf("rebuilt wasted bytes %v != %v", res.WastedBytes, rep.WastedBytes)
	}
}

// TestLoopbackGrepAndLineCount exercises the other named workloads over
// the wire, each with its reducers.
func TestLoopbackGrepAndLineCount(t *testing.T) {
	fs, corpus := testbedFS(t, 3)
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(nil),
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "grep", Input: "input.txt", Word: "lorem", NumReducers: 4},
		{Kind: "linecount", Input: "input.txt", NumReducers: 2, SubmitAt: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantGrep := wantCounts(workload.GrepLines(corpus, "lorem"))
	if !reflect.DeepEqual(rep.Outputs[0], wantGrep) {
		t.Fatal("grep output diverges from ground truth")
	}
	wantLines := wantCounts(workload.CountLines(corpus))
	if !reflect.DeepEqual(rep.Outputs[1], wantLines) {
		t.Fatal("linecount output diverges from ground truth")
	}
}

// TestCloseDeclaresNoWorkerDead: tearing the cluster down after a run
// closes every worker's connection, which is no death, so the trace
// stream holds no worker-lost event.
func TestCloseDeclaresNoWorkerDead(t *testing.T) {
	fs, _ := testbedFS(t, 3)
	mem := &trace.Memory{}
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(mem),
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Run(context.Background(), []JobSpec{{Kind: "linecount", Input: "input.txt", NumReducers: 2}})
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mem.Events() {
		if e.Type == trace.EvWorkerLost {
			t.Fatalf("the teardown declared node %d dead: %s", e.Node, e.Name)
		}
	}
}

// TestMasterRejectsInvalidJobs pins the satellite requirement: the
// master reuses the engine's typed validation at submission time, before
// any worker sees the job.
func TestMasterRejectsInvalidJobs(t *testing.T) {
	fs, _ := testbedFS(t, 4)
	bad := engineOpts(nil)
	bad.RackBps = math.NaN()
	if _, err := NewMaster(fs, MasterOptions{Engine: bad}); !errors.Is(err, runtime.ErrNegativeBandwidth) ||
		!strings.HasPrefix(err.Error(), "cluster: ") {
		t.Fatalf("NewMaster with a NaN rack bandwidth: %v, want a cluster-prefixed ErrNegativeBandwidth", err)
	}
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(nil),
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if _, err := l.Run(context.Background(), nil); err == nil {
		t.Fatal("master accepted an empty job list")
	}
	if _, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: -1},
	}); err == nil {
		t.Fatal("master accepted a negative reducer count")
	}
	if _, err := l.Run(context.Background(), []JobSpec{
		{Kind: "grep", Input: "input.txt", NumReducers: 1},
	}); err == nil {
		t.Fatal("master accepted a grep job without a word")
	}
	if _, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 2, SubmitAt: 5},
		{Kind: "wordcount", Input: "input.txt", NumReducers: 2, SubmitAt: 1},
	}); err == nil {
		t.Fatal("master accepted jobs with decreasing submit times")
	}

	// A well-formed job still runs after the rejections.
	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "linecount", Input: "input.txt", NumReducers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs[0]) == 0 {
		t.Fatal("no output after rejected submissions")
	}
}

// TestPlanInputPlansWholeFanIn: the run-map request fetches exactly the
// Healer's planned sources, and is a first-k-wins race (Need = k) exactly
// when spares were granted (runtime.TestHealerPlanInput holds the plan
// itself).
func TestPlanInputPlansWholeFanIn(t *testing.T) {
	fs, _ := testbedFS(t, 8)
	fs.Cluster().FailNode(3)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	jobs, err := BuildJobs([]JobSpec{{Kind: "wordcount", Input: "input.txt", NumReducers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := minimr.NewHarness("cluster", fs, m.opts.Engine, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := newClusterBackend(m, h, jobs)
	task := slices.IndexFunc(h.RJobs[0].Tasks, func(s sched.TaskSpec) bool { return s.Holder == 3 })
	if task < 0 {
		t.Fatal("failed node held no native block; scenario is vacuous")
	}
	k := fs.Code().K()
	// (12,10) with one loss leaves 11 survivors: at most one spare.
	for _, tc := range []struct {
		budget   runtime.SpareBudget
		wantNeed int
	}{
		{runtime.SpareBudget{}, 0},
		{runtime.SpareBudget{Fixed: 1, PerPrimary: 1}, k},
	} {
		var plan runtime.InputPlan
		if err := b.PlanInput(0, task, sched.ClassDegraded, 0, tc.budget, &plan); err != nil {
			t.Fatal(err)
		}
		req := plan.Input.(*mapReq)
		if !req.Degraded || req.Need != tc.wantNeed || len(req.Fetch) != len(plan.Sources) {
			t.Fatalf("budget %+v: request %+v does not mirror the %d planned sources", tc.budget, req, len(plan.Sources))
		}
		for i, f := range req.Fetch {
			if src := plan.Sources[i]; f.Node != int(src.Node) || f.Index != src.Index || f.Stripe != req.Stripe {
				t.Fatalf("fetch %d %+v differs from planned source %+v", i, f, src)
			}
		}
	}
}
