package runtime_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// The hedge scenario drives runtime.Run directly with a synthetic
// backend: node 0 holds every block and is failed before the run, so all
// tasks are degraded fan-ins of k source flows. Finite per-node
// bandwidth stretches the fan-ins over several virtual seconds, leaving
// room to inject a second failure mid-fan-in through PollFailures —
// something the mapred/minimr frontends cannot express.
const (
	hedgeNodes      = 6
	hedgeRacks      = 2
	hedgeK          = 2
	hedgeTasks      = 3
	hedgeBlockBytes = 1e6
	hedgeNodeBps    = 1e6
	hedgeMapTime    = 5.0
	hedgeHeartbeat  = 1.0
)

// hedgeBackend picks the k lowest-ID alive nodes (excluding the reader)
// as primaries and the following ones as spares — deterministic, no RNG.
// It stores nothing, so its healer half finds nothing to repair.
type hedgeBackend struct {
	cluster *topology.Cluster
}

var _ runtime.Backend = (*hedgeBackend)(nil)

func (b *hedgeBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget, plan *runtime.InputPlan) error {
	switch class {
	case sched.ClassNodeLocal:
	case sched.ClassRackLocal, sched.ClassRemote:
		plan.Transfers = append(plan.Transfers, runtime.Transfer{Src: 0, Bytes: hedgeBlockBytes})
	default: // degraded
		var srcs []topology.NodeID
		for i := 0; i < b.cluster.NumNodes(); i++ {
			if id := topology.NodeID(i); b.cluster.Alive(id) && id != node {
				srcs = append(srcs, id)
			}
		}
		primaries := min(hedgeK, len(srcs))
		srcs = srcs[:min(len(srcs), primaries+spares.For(primaries))]
		plan.Spares = len(srcs) - primaries
		for _, s := range srcs {
			plan.Transfers = append(plan.Transfers, runtime.Transfer{Src: s, Bytes: hedgeBlockBytes})
		}
	}
	return nil
}

func (b *hedgeBackend) ScanLostBlocks([]topology.NodeID) ([]repair.StripePlan, error) {
	return nil, nil
}
func (b *hedgeBackend) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	return repair.StripePlan{Key: key}, nil
}
func (b *hedgeBackend) CommitRepair(repair.Key, repair.BlockPlan) ([]runtime.RepairedTask, error) {
	return nil, nil
}
func (b *hedgeBackend) RepairBlockBytes() float64 { return hedgeBlockBytes }

func (b *hedgeBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	return hedgeMapTime, nil
}
func (b *hedgeBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	return nil, nil
}
func (b *hedgeBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	return nil
}
func (b *hedgeBackend) StartReduce(job, reducer int, node topology.NodeID, bytes float64) float64 {
	return 1
}
func (b *hedgeBackend) ReduceReset(job, reducer int) {}
func (b *hedgeBackend) AwaitReduce(job, reducer int, node topology.NodeID) error {
	return nil
}

// runHedgeScenario runs the scenario once. poll, when non-nil, is the
// PollFailures hook (for mid-run kills).
func runHedgeScenario(t *testing.T, hedge runtime.HedgePolicy,
	poll func(float64) []topology.NodeID) (*runtime.Result, []trace.Event) {
	t.Helper()
	return runHedgeBackend(t, hedge, poll, func(c *topology.Cluster) runtime.Backend { return &hedgeBackend{cluster: c} })
}

// runHedgeBackend runs the scenario on the backend newBackend returns.
func runHedgeBackend(t *testing.T, hedge runtime.HedgePolicy, poll func(float64) []topology.NodeID,
	newBackend func(*topology.Cluster) runtime.Backend) (*runtime.Result, []trace.Event) {
	t.Helper()
	cluster, err := topology.New(topology.Config{
		Nodes:           hedgeNodes,
		Racks:           hedgeRacks,
		MapSlotsPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]sched.TaskSpec, hedgeTasks)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{
			Block:  erasure.BlockID{Stripe: i, Index: 0},
			Holder: 0,
		}
	}
	var mem trace.Memory
	res, err := runtime.Run(runtime.Params{
		Name:    "hedge-test",
		Cluster: cluster,
		Options: runtime.Options{
			NodeBps:           hedgeNodeBps,
			HeartbeatInterval: hedgeHeartbeat,
			Hedge:             hedge,
			Trace:             &mem,
		},
		ToFail:       []topology.NodeID{0},
		PollFailures: poll,
	}, newBackend(cluster), []runtime.JobSpec{{Name: "j", Tasks: tasks}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, mem.Events()
}

// killAfter fails id at the first heartbeat at or after t.
func killAfter(t float64, id topology.NodeID) func(float64) []topology.NodeID {
	return func(now float64) []topology.NodeID {
		if now >= t {
			return []topology.NodeID{id}
		}
		return nil
	}
}

// fanInWindow returns task 0's degraded-plan time, degraded-done time,
// its node, and its first planned source, from a discovery run's trace.
func fanInWindow(t *testing.T, events []trace.Event) (plan, done float64, node, src int) {
	t.Helper()
	plan, done = -1, -1
	node, src = -1, -1
	for _, e := range events {
		switch e.Type {
		case trace.EvDegradedPlan:
			if plan < 0 && e.Job == 0 && e.Task == 0 {
				plan, node = e.T, e.Node
			}
		case trace.EvTransferStart:
			// Transfer events carry no job/task; the fan-in's flows are
			// the ones arriving at the task's node.
			if plan >= 0 && src < 0 && e.Dst == node {
				src = e.Src
			}
		case trace.EvDegradedDone:
			if done < 0 && e.Job == 0 && e.Task == 0 {
				done = e.T
			}
		}
	}
	if plan < 0 || done <= plan || node < 0 || src < 0 {
		t.Fatalf("no usable fan-in window: plan=%v done=%v node=%d src=%d", plan, done, node, src)
	}
	return plan, done, node, src
}

func countEvents(events []trace.Event, typ trace.Type, job, task int) int {
	n := 0
	for _, e := range events {
		if e.Type == typ && e.Job == job && e.Task == task {
			n++
		}
	}
	return n
}

func TestHedgedFanInRacesAndCancelsLosers(t *testing.T) {
	res, events := runHedgeScenario(t, runtime.HedgePolicy{Extra: 1}, nil)
	jr := res.Jobs[0]
	if got := jr.CountByClass()[sched.ClassDegraded]; got != hedgeTasks {
		t.Fatalf("degraded tasks = %d, want %d", got, hedgeTasks)
	}
	for _, rec := range jr.Tasks {
		if rec.FinishTime == 0 {
			t.Fatalf("task %d never finished", rec.Task)
		}
		if len(rec.FlowLatencies) != hedgeK {
			t.Fatalf("task %d recorded %d flow latencies, want %d (the k winners)",
				rec.Task, len(rec.FlowLatencies), hedgeK)
		}
		if rec.DegradedReadTime <= 0 {
			t.Fatalf("task %d degraded read time = %v", rec.Task, rec.DegradedReadTime)
		}
	}
	// k+Δ flows raced; the loser's partial progress is waste, disjoint
	// from BytesMoved.
	if res.WastedBytes <= 0 {
		t.Fatalf("wasted bytes = %v, want > 0", res.WastedBytes)
	}
	won := len(filterType(events, trace.EvFlowLatency))
	if won != hedgeTasks*(hedgeK+1) {
		t.Fatalf("flow-latency events = %d, want %d (k winners + 1 loser per task)",
			won, hedgeTasks*(hedgeK+1))
	}
	// Quantile accessors are finite and JSON-safe.
	for _, q := range stats.Quantiles(jr.DegradedFlowLatencies(), 0, 0.5, 0.99, 1) {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("non-finite flow latency quantile %v", q)
		}
	}
}

func TestHedgedRunDeterministic(t *testing.T) {
	h := runtime.HedgePolicy{Extra: 1, HedgeQuantile: 0.9}
	resA, evA := runHedgeScenario(t, h, nil)
	resB, evB := runHedgeScenario(t, h, nil)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("hedged results diverge across identical runs")
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatal("hedged traces diverge across identical runs")
	}
}

// TestSourceDeathMidFanInRequeues pins the failure-recovery contract for
// a degraded fan-in losing a source node mid-flight: the task is
// requeued (not hung, not double-started), relaunches, and finishes
// exactly once — with and without hedging.
func TestSourceDeathMidFanInRequeues(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hedge runtime.HedgePolicy
	}{
		{name: "unhedged"},
		{name: "hedged", hedge: runtime.HedgePolicy{Extra: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, probe := runHedgeScenario(t, tc.hedge, nil)
			plan, done, _, src := fanInWindow(t, probe)
			mid := (plan + done) / 2

			res, events := runHedgeScenario(t, tc.hedge, killAfter(mid, topology.NodeID(src)))
			if n := countEvents(events, trace.EvTaskRequeue, 0, 0); n < 1 {
				t.Fatalf("no requeue after source node %d died mid-fan-in", src)
			}
			if n := countEvents(events, trace.EvTaskFinish, 0, 0); n != 1 {
				t.Fatalf("task finished %d times, want exactly 1", n)
			}
			for _, rec := range res.Jobs[0].Tasks {
				if rec.FinishTime == 0 {
					t.Fatalf("task %d never finished after source death", rec.Task)
				}
				if rec.Node == topology.NodeID(src) {
					t.Fatalf("task %d finished on the dead source node", rec.Task)
				}
			}
		})
	}
}

// TestLoserSourceDeathAfterFanInLeavesTaskRunning kills the source of
// task 0's cancelled spare while the task processes its input: the fan-in
// holds no flow any more, so failure recovery must leave the task alone,
// and it finishes once where it ran.
func TestLoserSourceDeathAfterFanInLeavesTaskRunning(t *testing.T) {
	hedge := runtime.HedgePolicy{Extra: 1}
	_, probe := runHedgeScenario(t, hedge, nil)
	lost, finish, loser := -1.0, -1.0, -1
	for _, e := range probe {
		switch {
		case e.Type == trace.EvFlowLatency && e.Class == "lost" && e.Job == 0 && e.Task == 0:
			lost, loser = e.T, e.Src
		case e.Type == trace.EvTaskFinish && e.Job == 0 && e.Task == 0:
			finish = e.T
		}
	}
	if lost < 0 || finish < lost+2*hedgeHeartbeat {
		t.Fatalf("task 0 lost a spare at %v and finished at %v: no heartbeat between to kill at", lost, finish)
	}
	res, events := runHedgeScenario(t, hedge, killAfter(lost+hedgeHeartbeat, topology.NodeID(loser)))
	if len(filterType(events, trace.EvNodeFail)) < 2 {
		t.Fatalf("spare source %d was never killed", loser)
	}
	if n := countEvents(events, trace.EvTaskRequeue, 0, 0); n != 0 {
		t.Fatalf("task 0 requeued %d times after its spare's source died, want 0", n)
	}
	if rec := res.Jobs[0].Tasks[0]; rec.FinishTime != finish {
		t.Fatalf("task 0 finished at %v, want %v as without the failure", rec.FinishTime, finish)
	}
}

// TestTaskNodeDeathMidFanIn kills the degraded task's own node while its
// hedged fan-in is in flight: the attempt is abandoned, the relaunch
// completes, and the rebuilt degraded-read time pairs with the latest
// launch — never the stale pre-requeue one.
func TestTaskNodeDeathMidFanIn(t *testing.T) {
	hedge := runtime.HedgePolicy{Extra: 1}
	_, probe := runHedgeScenario(t, hedge, nil)
	plan, done, node, _ := fanInWindow(t, probe)
	mid := (plan + done) / 2

	res, events := runHedgeScenario(t, hedge, killAfter(mid, topology.NodeID(node)))
	if n := countEvents(events, trace.EvTaskRequeue, 0, 0); n < 1 {
		t.Fatalf("no requeue after task node %d died mid-fan-in", node)
	}
	rec := res.Jobs[0].Tasks[0]
	if rec.FinishTime == 0 {
		t.Fatal("task never finished after its node died")
	}
	if rec.Node == topology.NodeID(node) {
		t.Fatal("task record still on the dead node")
	}
	// The degraded-read time must match latest-launch → degraded-done in
	// the trace, and replaying the trace must reproduce the live Result.
	var lastLaunch, lastDone float64
	for _, e := range events {
		if e.Job != 0 || e.Task != 0 {
			continue
		}
		switch e.Type {
		case trace.EvTaskLaunch:
			lastLaunch = e.T
		case trace.EvDegradedDone:
			lastDone = e.T
		}
	}
	if want := lastDone - lastLaunch; rec.DegradedReadTime != want {
		t.Fatalf("degraded read time %v paired with a stale launch (want %v)",
			rec.DegradedReadTime, want)
	}
	if rebuilt := buildResult(t, events); !reflect.DeepEqual(rebuilt, res) {
		t.Fatal("trace replay diverges from the live result")
	}
}

// TestLatencyQuantileEdgeCases: the latency lists the hedge experiment
// takes quantiles of are empty for a job without degraded reads or
// recorded flows, and single-sample and all-equal lists give constant
// quantiles — never NaN or Inf — that marshal cleanly to JSON.
func TestLatencyQuantileEdgeCases(t *testing.T) {
	qs := []float64{0, 0.5, 0.9, 0.99, 1}

	empty := &runtime.JobResult{Tasks: []runtime.TaskRecord{{}}}
	if got := empty.DegradedFlowLatencies(); len(got) != 0 {
		t.Fatalf("empty samples: flow latencies = %v, want none", got)
	}
	if got := empty.DegradedReadTimes(); len(got) != 0 {
		t.Fatalf("no degraded tasks: read times = %v, want none", got)
	}

	single := &runtime.JobResult{Tasks: []runtime.TaskRecord{{FlowLatencies: []float64{7}}}}
	singleQ := stats.Quantiles(single.DegradedFlowLatencies(), qs...)
	for _, q := range singleQ {
		if q != 7 {
			t.Fatalf("single sample: quantile = %v, want 7", q)
		}
	}

	equal := &runtime.JobResult{Tasks: []runtime.TaskRecord{
		{FlowLatencies: []float64{3, 3}}, {FlowLatencies: []float64{3}},
	}}
	equalQ := stats.Quantiles(equal.DegradedFlowLatencies(), qs...)
	for _, q := range equalQ {
		if q != 3 {
			t.Fatalf("all-equal samples: quantile = %v, want 3", q)
		}
	}

	for _, xs := range [][]float64{singleQ, equalQ} {
		if _, err := json.Marshal(xs); err != nil {
			t.Fatalf("quantiles %v not JSON-marshalable: %v", xs, err)
		}
	}
}

func TestHedgePolicyValidate(t *testing.T) {
	bad := []runtime.HedgePolicy{
		{Extra: -1},
		{HedgeQuantile: 1},
		{HedgeQuantile: -0.1},
		{HedgeQuantile: math.NaN()},
	}
	for _, h := range bad {
		if err := h.Validate(); err == nil {
			t.Fatalf("policy %+v validated", h)
		}
	}
	good := []runtime.HedgePolicy{
		{},
		{Extra: 2},
		{Extra: 1, HedgeQuantile: 0.95},
	}
	for _, h := range good {
		if err := h.Validate(); err != nil {
			t.Fatalf("policy %+v rejected: %v", h, err)
		}
	}
}

// sourceDies is the hedge scenario's backend with an AwaitOutput that
// reports task 0's first attempt as failed on its first degraded-read
// source, a live remote node, as the TCP cluster reports a peer that
// died under a finished fan-in.
type sourceDies struct {
	*hedgeBackend
	source topology.NodeID // -1 until reported
}

func (b *sourceDies) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	if task != 0 || b.source >= 0 {
		return nil, nil
	}
	for i := 0; i < b.cluster.NumNodes(); i++ {
		if id := topology.NodeID(i); b.cluster.Alive(id) && id != node {
			b.source = id
			return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{id}}
		}
	}
	return nil, nil
}

// TestRemoteSourceDeathRequeuesTask: a DeadNodeError at a map's
// completion that names only a remote source leaves the task's own node
// alive and its finished flows untouched, so failure injection does not
// requeue it; mapAwaitFailure must. The task relaunches and finishes once
// on a live node, and the Builder accepts the trace (Run returns no
// error).
func TestRemoteSourceDeathRequeuesTask(t *testing.T) {
	b := &sourceDies{source: -1}
	res, events := runHedgeBackend(t, runtime.HedgePolicy{}, nil, func(c *topology.Cluster) runtime.Backend {
		b.hedgeBackend = &hedgeBackend{cluster: c}
		return b
	})
	if b.source < 0 {
		t.Fatal("task 0 was never awaited: scenario is vacuous")
	}
	var requeueAt, failAt float64 = -1, -1
	for _, e := range events {
		switch {
		case e.Type == trace.EvNodeFail && e.Node == int(b.source):
			failAt = e.T
		case e.Type == trace.EvTaskRequeue && e.Job == 0 && e.Task == 0 && requeueAt < 0:
			requeueAt = e.T
		}
	}
	if failAt < 0 || requeueAt != failAt {
		t.Fatalf("source %d failed at %v, task 0 requeued at %v: want one instant", b.source, failAt, requeueAt)
	}
	if n := countEvents(events, trace.EvTaskFinish, 0, 0); n != 1 {
		t.Fatalf("task 0 finished %d times, want 1", n)
	}
	if rec := res.Jobs[0].Tasks[0]; rec.FinishTime == 0 || rec.Node == b.source {
		t.Fatalf("task 0 record %+v: want a finish on a node other than %d", rec, b.source)
	}
}

// TestRequeueCancelsPendingHedgeTimers kills a degraded task's node while
// its fan-in's deadline checks are pending. Requeueing releases the
// attempt's record for a later launch, so its timers must go with it: a
// stale one would fire on the released record, or on the attempt reusing
// it. Every hedge launch must belong to the attempt in flight on its node.
func TestRequeueCancelsPendingHedgeTimers(t *testing.T) {
	const tasks = 16
	hedge := runtime.HedgePolicy{HedgeQuantile: 0.5}
	run := func(poll func(float64) []topology.NodeID) []trace.Event {
		t.Helper()
		cluster := topology.MustNew(topology.Config{Nodes: 8, Racks: 2, MapSlotsPerNode: 1})
		specs := make([]sched.TaskSpec, tasks)
		for i := range specs {
			specs[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: 0}
		}
		var mem trace.Memory
		if _, err := runtime.Run(runtime.Params{
			Name:    "hedge-timers",
			Cluster: cluster,
			Options: runtime.Options{NodeBps: hedgeNodeBps, HeartbeatInterval: hedgeHeartbeat, Hedge: hedge, Trace: &mem},
			ToFail:  []topology.NodeID{0}, PollFailures: poll,
		}, &hedgeBackend{cluster: cluster}, []runtime.JobSpec{{Name: "j", Tasks: specs}}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return mem.Events()
	}

	// The first fan-in launched once the deadline estimator has its
	// samples arms a timer per flow; kill its node halfway through.
	samples, task, node := 0, -1, -1
	plan, done := -1.0, -1.0
	for _, e := range run(nil) {
		switch {
		case e.Type == trace.EvFlowLatency:
			samples++
		case e.Type == trace.EvDegradedPlan && task < 0 && samples >= 8:
			task, node, plan = e.Task, e.Node, e.T
		case e.Type == trace.EvDegradedDone && e.Task == task && done < 0:
			done = e.T
		}
	}
	if task < 0 || done < plan+2*hedgeHeartbeat {
		t.Fatalf("no armed fan-in long enough to kill inside: task %d from %v to %v", task, plan, done)
	}
	events := run(killAfter((plan+done)/2, topology.NodeID(node)))
	if n := countEvents(events, trace.EvTaskRequeue, 0, task); n == 0 {
		t.Fatalf("task %d was not requeued when node %d died", task, node)
	}
	onNode := map[int]int{} // task -> node of its attempt in flight
	for _, e := range events {
		switch e.Type {
		case trace.EvTaskLaunch:
			onNode[e.Task] = e.Node
		case trace.EvTaskRequeue, trace.EvTaskFinish:
			delete(onNode, e.Task)
		case trace.EvHedgeLaunch:
			if n, ok := onNode[e.Task]; !ok || n != e.Node {
				t.Fatalf("hedge for task %d on node %d at %v, but its attempt in flight is %v (%v)", e.Task, e.Node, e.T, n, ok)
			}
		}
	}
}
