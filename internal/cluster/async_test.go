package cluster

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/trace"
)

// testbedMix is the paper's Fig. 9b job mix, every job with reducers.
var testbedMix = []JobSpec{
	{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	{Kind: "grep", Input: "input.txt", Word: "lorem", NumReducers: 4, SubmitAt: 1},
	{Kind: "linecount", Input: "input.txt", NumReducers: 2, SubmitAt: 2},
}

// failedTestbed is the testbed with node 3 failed.
func failedTestbed(t *testing.T) *dfs.FS {
	fs, _ := testbedFS(t, 2)
	fs.Cluster().FailNode(3)
	return fs
}

// TestLoopbackTestbedMixMatchesInProcess: the testbed mix with a failed
// node, its reducers pulling every partition at their start, gives the
// in-process engine's outputs and virtual schedule.
func TestLoopbackTestbedMixMatchesInProcess(t *testing.T) {
	l := startLoopback(t, failedTestbed(t), nil)
	rep, err := l.Run(context.Background(), testbedMix)
	if err != nil {
		t.Fatal(err)
	}

	jobs, err := BuildJobs(testbedMix)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := minimr.Run(failedTestbed(t), engineOpts(nil), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outputs, ref.Outputs) {
		t.Fatal("cluster outputs diverge from the in-process engine's")
	}
	if rep.Makespan != ref.Makespan {
		t.Fatalf("virtual schedules diverge: cluster makespan %v, in-process %v", rep.Makespan, ref.Makespan)
	}
}

// cancelOn is a trace sink that cancels a run at its first event of one
// type for one job.
type cancelOn struct {
	typ    trace.Type
	job    int
	cancel context.CancelFunc
}

func (c cancelOn) Emit(e trace.Event) {
	if e.Type == c.typ && e.Job == c.job {
		c.cancel()
	}
}

// TestLoopbackNoGoroutineLeak: no RPC future, connection or worker
// goroutine outlives a loopback cluster's Close, whether its run
// finished or was cancelled with maps and reduces in flight. The cancel
// lands at the wordcount job's first reduce-start: its reduces take
// virtual seconds, so the run stops with them, and their pulls,
// unawaited.
func TestLoopbackNoGoroutineLeak(t *testing.T) {
	before := goruntime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// Goroutines that saw their connection close may not have returned
		// yet; a leaked one never does.
		for wait := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatalf("after %s: %d goroutines, %d before", what, goruntime.NumGoroutine(), before)
			}
		}
	}

	l := startLoopback(t, failedTestbed(t), nil)
	_, err := l.Run(context.Background(), testbedMix)
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	settled("a Run and Close")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l = startLoopback(t, failedTestbed(t), cancelOn{trace.EvReduceStart, 0, cancel})
	_, err = l.Run(ctx, testbedMix)
	l.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	settled("a Run cancelled at the wordcount job's first reduce-start and Close")
}
