package mapred

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

func TestMidRunFailureCompletes(t *testing.T) {
	// Fail a node a third of the way into the map phase: the job must
	// still finish, with no task or reduce record on the dead node after
	// the failure time.
	cfg := smallConfig()
	cfg.Seed = 61
	cfg.FailNodes = []topology.NodeID{4}
	cfg.FailAt = 20
	cfg.Scheduler = EDF
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 1 || res.Failed[0] != 4 {
		t.Fatalf("failed = %v", res.Failed)
	}
	jr := res.Jobs[0]
	for _, rec := range jr.Tasks {
		if rec.FinishTime == 0 {
			t.Fatalf("task %d never completed", rec.Task)
		}
		if rec.Node == 4 && rec.FinishTime > cfg.FailAt {
			t.Fatalf("task %d finished on the dead node at %.1f", rec.Task, rec.FinishTime)
		}
	}
	if len(jr.Reduces) != smallJob().NumReduceTasks {
		t.Fatalf("reduces = %d", len(jr.Reduces))
	}
	for _, r := range jr.Reduces {
		if r.Node == 4 {
			t.Fatal("reduce completed on the dead node")
		}
	}
	// Degraded tasks exist: blocks on node 4 became degraded mid-run.
	if jr.CountByClass()[sched.ClassDegraded] == 0 {
		t.Fatal("mid-run failure produced no degraded tasks")
	}
}

func TestMidRunFailureMapOnly(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 67
	cfg.FailNodes = []topology.NodeID{1}
	cfg.FailAt = 15
	job := smallJob()
	job.NumReduceTasks = 0
	job.ShuffleRatio = 0
	res := mustRun(t, cfg, job)
	jr := res.Jobs[0]
	// Map-only outputs go to the DFS: completed maps on the failed node
	// are NOT re-executed; only running/pending work moves.
	for _, rec := range jr.Tasks {
		if rec.FinishTime == 0 {
			t.Fatalf("task %d never completed", rec.Task)
		}
	}
	if jr.MapPhaseEnd != jr.FinishTime {
		t.Fatal("map-only job must end with map phase")
	}
}

func TestMidRunFailureLateInReducePhase(t *testing.T) {
	// Failure long after the map phase: outputs on the dead node that
	// reducers still need force map re-execution, and the job still ends.
	cfg := smallConfig()
	cfg.Seed = 71
	cfg.FailNodes = []topology.NodeID{7}
	cfg.FailAt = 60 // map phase of the small job ends around 30-50 s
	cfg.Scheduler = LF
	res := mustRun(t, cfg, smallJob())
	jr := res.Jobs[0]
	if jr.FinishTime <= cfg.FailAt {
		t.Skip("job finished before the injected failure; nothing to recover")
	}
	for _, r := range jr.Reduces {
		if r.Node == 7 {
			t.Fatal("reduce record on dead node")
		}
	}
}

func TestMidRunFailureDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 73
	cfg.FailAt = 25
	cfg.Scheduler = EDF
	a := mustRun(t, cfg, smallJob())
	b := mustRun(t, cfg, smallJob())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mid-run failure runs must be deterministic")
	}
}

func TestMidRunFailureBeforeAnythingEqualsTimeZero(t *testing.T) {
	// Failing at t=0 via FailAt must behave like immediate failure for
	// job-level outcomes (modulo the instant of classification, which for
	// a t=0 event precedes submission exactly as the immediate path does).
	base := smallConfig()
	base.Seed = 79
	base.FailNodes = []topology.NodeID{3}
	base.Scheduler = EDF
	immediate := mustRun(t, base, smallJob())
	// FailAt tiny but positive: everything still pending at injection.
	mid := base
	mid.FailAt = 1e-9
	viaEvent := mustRun(t, mid, smallJob())
	if immediate.Jobs[0].CountByClass()[sched.ClassDegraded] !=
		viaEvent.Jobs[0].CountByClass()[sched.ClassDegraded] {
		t.Fatalf("degraded counts diverge: %v vs %v",
			immediate.Jobs[0].CountByClass(), viaEvent.Jobs[0].CountByClass())
	}
}

func TestFailAtValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.FailAt = -1
	if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
		t.Fatal("negative FailAt must fail")
	}
}

func TestMidRunDoubleFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 83
	cfg.Failure = topology.DoubleNodeFailure
	cfg.FailAt = 18
	cfg.Scheduler = EDF
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 2 {
		t.Fatalf("failed = %v", res.Failed)
	}
	for _, rec := range res.Jobs[0].Tasks {
		if rec.FinishTime == 0 {
			t.Fatal("unfinished task after double mid-run failure")
		}
		if !topologyAlive(res.Failed, rec.Node) && rec.FinishTime > cfg.FailAt {
			t.Fatal("task finished on dead node after failure")
		}
	}
}

// TestSharedPartitionsSurviveMidShuffleFailure runs a failure into the
// middle of the shuffle — cancelled shuffle flows (the ledger's cancel),
// a reset reducer (resetReducer) and lost map outputs re-executed
// (reexecuteLostOutputs) — and checks that the partition slice every map
// of the job shares is unchanged by it.
func TestSharedPartitionsSurviveMidShuffleFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 61
	cfg.FailNodes = []topology.NodeID{4}
	cfg.FailAt = 20
	cfg.Scheduler = EDF
	mem := &trace.Memory{}
	cfg.Trace = mem
	r, err := prepare(context.Background(), cfg, []JobSpec{smallJob()})
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := r.backend.AwaitOutput(0, 0, 0, nil)
	other, _ := r.backend.AwaitOutput(0, 1, 0, nil)
	if len(shared) != smallJob().NumReduceTasks || &other[0] != &shared[0] {
		t.Fatal("maps of one job do not share one partition slice")
	}
	before := slices.Clone(shared)
	if _, err := runtime.Run(r.params, r.backend, r.jobs); err != nil {
		t.Fatal(err)
	}
	finished := map[int]bool{}
	var cancels, resets, lostOutputs int
	for _, e := range mem.Events() {
		switch e.Type {
		case trace.EvTaskFinish:
			finished[e.Task] = true
		case trace.EvTaskRequeue:
			if finished[e.Task] {
				lostOutputs++
			}
			finished[e.Task] = false
		case trace.EvTransferCancel:
			cancels++
		case trace.EvReduceReset:
			resets++
		}
	}
	if cancels == 0 || resets == 0 || lostOutputs == 0 {
		t.Fatalf("failure did not reach the shuffle: %d cancelled flows, %d reducer resets, %d lost outputs re-executed",
			cancels, resets, lostOutputs)
	}
	t.Logf("%d cancelled flows, %d reducer resets, %d lost outputs re-executed", cancels, resets, lostOutputs)
	if !slices.Equal(shared, before) {
		t.Fatalf("shared partitions changed by the run: %v, was %v", shared, before)
	}
}
