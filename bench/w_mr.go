package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	wlgen "degradedfirst/internal/workload"
)

const (
	testbedInput    = "input.txt"
	testbedFailNode = 3
)

// testbedMix is the paper's Fig. 9b job mix, eight reducers each,
// submitted one virtual second apart. Both real-bytes workloads run it.
var testbedMix = []cluster.JobSpec{
	{Kind: "wordcount", Input: testbedInput, NumReducers: 8, SubmitAt: 0},
	{Kind: "grep", Input: testbedInput, Word: "whale", NumReducers: 8, SubmitAt: 1},
	{Kind: "linecount", Input: testbedInput, NumReducers: 8, SubmitAt: 2},
}

// testbed is the paper's Section VI cluster in memory: 12 nodes in 3
// racks, a (12,10) code over 64 KiB blocks of generated text placed
// round-robin, and node 3 failed before any job runs.
type testbed struct {
	fs     *dfs.FS
	corpus []byte
}

func testbedBlocks(tiny bool) int {
	if tiny {
		return 10 // one stripe; node 3 still holds a native block of it
	}
	return minimr.TestbedNumBlocks
}

func newTestbed(e *env) (*testbed, error) {
	clu, err := topology.New(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(clu, erasure.MustNew(12, 10), minimr.TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(e.seed))
	if err != nil {
		return nil, err
	}
	sp := e.spans.start("workload.GenerateBlockAlignedCorpus")
	corpus, err := wlgen.GenerateBlockAlignedCorpus(testbedBlocks(e.tiny), minimr.TestbedBlockSize, e.seed)
	e.spans.end(sp, float64(len(corpus)))
	if err != nil {
		return nil, err
	}
	sp = e.spans.start("dfs.Write")
	_, err = fs.Write(testbedInput, corpus)
	e.spans.end(sp, float64(len(corpus)))
	if err != nil {
		return nil, err
	}
	clu.FailNode(testbedFailNode)
	return &testbed{fs: fs, corpus: corpus}, nil
}

func testbedOptions(e *env, kind sched.Kind, label string) minimr.Options {
	return minimr.Options{
		Scheduler: kind, RackBps: minimr.TestbedRackBps, Seed: e.seed,
		Trace: e.traceSink(), TraceLabel: label,
	}
}

// runMinimr executes the job mix in process under one scheduler.
func (tb *testbed) runMinimr(e *env, kind sched.Kind) (mrRun, error) {
	jobs, err := cluster.BuildJobs(testbedMix)
	if err != nil {
		return mrRun{}, err
	}
	label := "minimr/" + kind.String()
	sp := e.spans.start("minimr.Run")
	t0 := startWatch()
	rep, err := minimr.Run(tb.fs, testbedOptions(e, kind, label), jobs)
	host := t0.seconds()
	e.spans.end(sp, float64(len(jobs)*len(tb.corpus)))
	if err != nil {
		return mrRun{}, fmt.Errorf("%s: %w", label, err)
	}
	return reportRun(label, rep, host), nil
}

func reportRun(label string, rep *minimr.Report, host float64) mrRun {
	return mrRun{
		label: label, sched: rep.Scheduler, makespan: rep.Makespan,
		moved: rep.BytesMoved + rep.WastedBytes, jobs: rep.Jobs,
		repair: rep.Repair, outputs: rep.Outputs, hostS: host,
	}
}

// addRun folds one engine run into the outcome.
func (tb *testbed) addRun(o *outcome, r mrRun) {
	o.runs = append(o.runs, r)
	o.ops += len(r.jobs)
	o.inputBytes += float64(len(r.jobs) * len(tb.corpus))
	for j := range r.jobs {
		o.tasks += len(r.jobs[j].Tasks) + len(r.jobs[j].Reduces)
	}
}

// groundTruth memoizes wantOutputs for the one corpus a process works
// on: every iteration rebuilds the testbed from the same seed, and the
// three direct counts cost more than a second of host time.
var groundTruth struct {
	corpus []byte
	want   []map[string]string
}

// wantOutputs is the job mix's ground truth: direct counts over the
// corpus, formatted as the reducers format them.
func (tb *testbed) wantOutputs() []map[string]string {
	if bytes.Equal(groundTruth.corpus, tb.corpus) {
		return groundTruth.want
	}
	format := func(counts map[string]int) map[string]string {
		out := make(map[string]string, len(counts))
		for k, v := range counts {
			out[k] = strconv.Itoa(v)
		}
		return out
	}
	groundTruth.corpus = tb.corpus
	groundTruth.want = []map[string]string{
		format(wlgen.CountWords(tb.corpus)),
		format(wlgen.GrepLines(tb.corpus, testbedMix[1].Word)),
		format(wlgen.CountLines(tb.corpus)),
	}
	return groundTruth.want
}

// checkOutputs compares every run's job outputs with the ground truth;
// each differing job is one failed operation.
func (tb *testbed) checkOutputs(runs []mrRun) []string {
	want := tb.wantOutputs()
	var bad []string
	for _, r := range runs {
		for j := range want {
			if j >= len(r.outputs) || !reflect.DeepEqual(r.outputs[j], want[j]) {
				bad = append(bad, fmt.Sprintf("%s: %s output differs from a direct count over the corpus", r.label, testbedMix[j].Kind))
			}
		}
	}
	return bad
}

// minimrInstance is one iteration of minimr-testbed.
type minimrInstance struct{ tb *testbed }

func minimrSetUp(e *env) (instance, error) {
	tb, err := newTestbed(e)
	if err != nil {
		return nil, err
	}
	return &minimrInstance{tb}, nil
}

func (m *minimrInstance) run(e *env) (*outcome, error) {
	o := &outcome{}
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindEDF} {
		r, err := m.tb.runMinimr(e, kind)
		if err != nil {
			return nil, err
		}
		m.tb.addRun(o, r)
	}
	return o, nil
}

func (m *minimrInstance) check(_ *env, o *outcome) []string { return m.tb.checkOutputs(o.runs) }
func (m *minimrInstance) close()                            {}

// loopbackInstance is one iteration of cluster-loopback: the testbed
// plus a master and eleven workers on 127.0.0.1.
type loopbackInstance struct {
	tb    *testbed
	local *cluster.Local
	// refS is the host time of the in-process EDF run the check compares
	// against; the traced pass turns it into cluster.overhead_s.
	refS float64
}

func loopbackSetUp(e *env) (instance, error) {
	tb, err := newTestbed(e)
	if err != nil {
		return nil, err
	}
	sp := e.spans.start("cluster.StartLocal")
	local, err := cluster.StartLocal(tb.fs, cluster.MasterOptions{
		// The workers share two cores with the master: a generous real
		// heartbeat deadline keeps a stalled goroutine from reading as a
		// dead node, which would change the schedule.
		HeartbeatEvery: 200 * time.Millisecond,
		HeartbeatMiss:  100,
		Engine:         testbedOptions(e, sched.KindEDF, "cluster/EDF"),
	}, cluster.WorkerOptions{})
	e.spans.end(sp, 0)
	if err != nil {
		return nil, err
	}
	return &loopbackInstance{tb: tb, local: local}, nil
}

func (l *loopbackInstance) run(e *env) (*outcome, error) {
	sp := e.spans.start("cluster.Local.Run")
	t0 := startWatch()
	rep, err := l.local.Run(context.Background(), testbedMix)
	host := t0.seconds()
	e.spans.end(sp, float64(len(testbedMix)*len(l.tb.corpus)))
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	l.tb.addRun(o, reportRun("cluster/EDF", rep, host))
	return o, nil
}

// check holds the loopback run to the in-process engine's EDF run on an
// identical, separately built testbed: same makespan, same bytes moved,
// same outputs, bit for bit — so the two workloads differ by the cluster
// layer and nothing else.
func (l *loopbackInstance) check(e *env, o *outcome) []string {
	bad := l.tb.checkOutputs(o.runs)
	quiet := &env{seed: e.seed, tiny: e.tiny}
	ref, err := newTestbed(quiet)
	if err != nil {
		return append(bad, "reference testbed: "+err.Error())
	}
	want, err := ref.runMinimr(quiet, sched.KindEDF)
	if err != nil {
		return append(bad, "reference run: "+err.Error())
	}
	l.refS = want.hostS
	got := o.runs[0]
	if !sameBits(got.makespan, want.makespan) || !sameBits(got.moved, want.moved) {
		bad = append(bad, fmt.Sprintf("loopback makespan %v / bytes %v differ from in-process %v / %v",
			got.makespan, got.moved, want.makespan, want.moved))
	}
	if !reflect.DeepEqual(got.outputs, want.outputs) {
		bad = append(bad, "loopback outputs differ from the in-process engine's")
	}
	return bad
}

func (l *loopbackInstance) close() { l.local.Close() }
