package runtime_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// The repair scenario drives runtime.Run with a synthetic store backend:
// a hand-written stripe map, deterministic planning (k lowest-index
// survivors, lowest-ID free destination), and a commit log that records
// every block write — the probe for the no-double-write guarantee.
const (
	repNodes      = 8
	repRacks      = 2
	repN          = 4
	repK          = 2
	repBlockBytes = 1e6
	repNodeBps    = 1e6
)

// repairStore is a fake store for the healer half of Backend plus a
// minimal foreground half (every job input is a single holder read, as
// in hedge tests).
type repairStore struct {
	cluster *topology.Cluster
	// holders[s] are stripe s's current block holders, index order.
	holders [][]topology.NodeID
	// taskOf maps (stripe, block index) to the foreground task reading it.
	taskOf map[[2]int]runtime.RepairedTask
	// commits counts CommitRepair calls per "stripe/index".
	commits map[string]int
	// commitOrder records commit identities in commit order.
	commitOrder []string
	// commitErr, when set, may fail a commit before the store looks at it.
	commitErr func(repair.BlockPlan) error
}

var _ runtime.Backend = (*repairStore)(nil)

func newRepairStore(c *topology.Cluster, holders [][]topology.NodeID) *repairStore {
	return &repairStore{
		cluster: c,
		holders: holders,
		taskOf:  make(map[[2]int]runtime.RepairedTask),
		commits: make(map[string]int),
	}
}

func (b *repairStore) planStripe(s int) (repair.StripePlan, error) {
	plan := repair.StripePlan{Key: repair.Key{File: "f", Stripe: s}}
	var lost []int
	var survivors []repair.Source
	for i, h := range b.holders[s] {
		if b.cluster.Alive(h) {
			survivors = append(survivors, repair.Source{Node: h, Index: i})
		} else {
			lost = append(lost, i)
		}
	}
	plan.Lost = len(lost)
	if len(lost) == 0 {
		return plan, nil
	}
	if len(lost) > repN-repK {
		plan.Unrepairable = true
		return plan, nil
	}
	taken := make(map[topology.NodeID]bool)
	for _, idx := range lost {
		dest := topology.NodeID(-1)
		for i := 0; i < b.cluster.NumNodes(); i++ {
			id := topology.NodeID(i)
			if !b.cluster.Alive(id) || taken[id] {
				continue
			}
			holds := false
			for _, h := range b.holders[s] {
				if h == id {
					holds = true
					break
				}
			}
			if !holds {
				dest = id
				break
			}
		}
		if dest < 0 {
			return plan, fmt.Errorf("no destination for stripe %d", s)
		}
		taken[dest] = true
		plan.Blocks = append(plan.Blocks, repair.BlockPlan{
			Index:   idx,
			Dest:    dest,
			Sources: append([]repair.Source(nil), survivors[:repK]...),
		})
	}
	return plan, nil
}

func (b *repairStore) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	var plans []repair.StripePlan
	for s := range b.holders {
		plan, err := b.planStripe(s)
		if err != nil {
			return nil, err
		}
		if plan.Lost > 0 {
			plans = append(plans, plan)
		}
	}
	return plans, nil
}

func (b *repairStore) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	return b.planStripe(key.Stripe)
}

func (b *repairStore) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]runtime.RepairedTask, error) {
	id := fmt.Sprintf("s%d/b%d", key.Stripe, bp.Index)
	b.commits[id]++
	b.commitOrder = append(b.commitOrder, id)
	if b.commitErr != nil {
		if err := b.commitErr(bp); err != nil {
			return nil, err
		}
	}
	if b.cluster.Alive(b.holders[key.Stripe][bp.Index]) {
		return nil, fmt.Errorf("store: block %s is not lost", id)
	}
	if !b.cluster.Alive(bp.Dest) {
		return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{bp.Dest}}
	}
	b.holders[key.Stripe][bp.Index] = bp.Dest
	if ref, ok := b.taskOf[[2]int{key.Stripe, bp.Index}]; ok {
		return []runtime.RepairedTask{ref}, nil
	}
	return nil, nil
}

func (b *repairStore) RepairBlockBytes() float64 { return repBlockBytes }

func (b *repairStore) PlanInput(job, task int, class sched.Class, node topology.NodeID, _ runtime.SpareBudget, plan *runtime.InputPlan) error {
	// Non-degraded foreground reads stay free of network noise; a degraded
	// one reads from the k lowest alive nodes.
	if class == sched.ClassDegraded {
		for i := 0; i < b.cluster.NumNodes() && len(plan.Transfers) < repK; i++ {
			id := topology.NodeID(i)
			if b.cluster.Alive(id) && id != node {
				plan.Transfers = append(plan.Transfers, runtime.Transfer{Src: id, Bytes: repBlockBytes})
			}
		}
	}
	return nil
}

func (b *repairStore) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	return 1, nil
}
func (b *repairStore) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	return nil, nil
}
func (b *repairStore) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	return nil
}
func (b *repairStore) StartReduce(job, reducer int, node topology.NodeID, bytes float64) float64 {
	return 1
}
func (b *repairStore) ReduceReset(job, reducer int) {}
func (b *repairStore) AwaitReduce(job, reducer int, node topology.NodeID) error {
	return nil
}

// runRepairScenario runs one job (a single task on alive node 7's data)
// against the given store with repair configured.
func runRepairScenario(t *testing.T, store *repairStore, cfg repair.Config,
	toFail []topology.NodeID, poll func(float64) []topology.NodeID,
	extraJobs ...runtime.JobSpec) (*runtime.Result, []trace.Event, error) {
	t.Helper()
	jobs := append([]runtime.JobSpec{{
		Name:  "fg",
		Tasks: []sched.TaskSpec{{Block: erasure.BlockID{Stripe: 99, Index: 0}, Holder: 7}},
	}}, extraJobs...)
	var mem trace.Memory
	res, err := runtime.Run(runtime.Params{
		Name:    "repair-test",
		Cluster: store.cluster,
		Options: runtime.Options{
			NodeBps:           repNodeBps,
			HeartbeatInterval: 1,
			Repair:            cfg,
			Trace:             &mem,
		},
		ToFail:       toFail,
		PollFailures: poll,
	}, store, jobs)
	return res, mem.Events(), err
}

func repairCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	c, err := topology.New(topology.Config{
		Nodes:           repNodes,
		Racks:           repRacks,
		MapSlotsPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func repairEvents(events []trace.Event, typ trace.Type) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestSecondFailureMidRepair is the white-box recovery scenario: node 0
// dies at t=0 and, while stripe 0's repair flows are in flight, node 1
// (a repair source) dies too. The in-flight repair must be cancelled,
// its stripe re-queued boosted, and no block ever committed twice.
func TestSecondFailureMidRepair(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{
		{0, 1, 2, 3},
		{0, 1, 2, 5},
	})
	res, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true}, // unthrottled
		[]topology.NodeID{0},
		killAfter(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Repair
	if st == nil {
		t.Fatal("no repair stats")
	}
	// Both stripes lost blocks 0 and 1 (nodes 0 and 1): four rebuilds.
	if st.BlocksRepaired != 4 {
		t.Fatalf("BlocksRepaired = %d, want 4", st.BlocksRepaired)
	}
	if st.FullRedundancyAt < 0 {
		t.Fatalf("never reached full redundancy: %+v", st)
	}
	// The second failure must have interrupted an in-flight repair.
	requeued := 0
	for _, e := range repairEvents(events, trace.EvRepairQueued) {
		if e.Class == "requeue" {
			requeued++
		}
	}
	if requeued == 0 {
		t.Fatal("second failure cancelled no in-flight repair (no requeue event)")
	}
	// No block is written twice: every commit identity is unique.
	for id, n := range store.commits {
		if n != 1 {
			t.Fatalf("block %s committed %d times: order %v", id, n, store.commitOrder)
		}
	}
	// Final placements are all alive.
	for s, hs := range store.holders {
		for i, h := range hs {
			if !c.Alive(h) {
				t.Fatalf("stripe %d block %d still on dead node %d", s, i, h)
			}
		}
	}
	// The cancelled flows' bytes never completed, so they are not part of
	// RepairBytes (which counts committed repairs only).
	if want := 4 * repK * repBlockBytes; st.RepairBytes != float64(want) {
		t.Fatalf("RepairBytes = %v, want %v", st.RepairBytes, want)
	}
}

// TestFailureMissingRepairLeavesItRunning: node 0 dies at t=0 and
// stripe 0's repair reads nodes 1 and 2 into node 4. Node 6, which the
// repair does not touch, dies while it is in flight: the repair is not
// cancelled (no requeue event) and commits its one block once.
func TestFailureMissingRepairLeavesItRunning(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	res, events, err := runRepairScenario(t, store, repair.Config{Enabled: true}, []topology.NodeID{0}, killAfter(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if launches := repairEvents(events, trace.EvRepairLaunch); len(launches) != 1 || launches[0].T >= 1 {
		t.Fatalf("repair launches %v: want one before node 6 fails at t=1", launches)
	}
	if fails := repairEvents(events, trace.EvNodeFail); len(fails) != 2 || fails[1].Node != 6 {
		t.Fatalf("node-fail events %v: want nodes 0 and 6", fails)
	}
	for _, e := range repairEvents(events, trace.EvRepairQueued) {
		if e.Class == "requeue" {
			t.Fatalf("a failure the repair does not touch requeued it at t=%v", e.T)
		}
	}
	if st := res.Repair; st == nil || st.BlocksRepaired != 1 || store.commits["s0/b0"] != 1 || store.holders[0][0] != 4 {
		t.Fatalf("repair stats %+v, commits %v, holders %v: want block 0 rebuilt once on node 4", st, store.commits, store.holders[0])
	}
}

// TestRepairRequeueBoostWins: after the second failure, the re-queued
// stripe must launch before queued-but-never-launched work.
func TestRepairRequeueBoostRelaunchesFirst(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{
		{0, 1, 2, 3},
		{0, 1, 2, 5},
	})
	_, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true},
		[]topology.NodeID{0},
		killAfter(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Find the requeue, then the next launch: it must be the same stripe.
	launches := repairEvents(events, trace.EvRepairQueued)
	var requeuedStripe = -1
	var requeueAt float64
	for _, e := range launches {
		if e.Class == "requeue" {
			requeuedStripe, requeueAt = e.Task, e.T
			break
		}
	}
	if requeuedStripe < 0 {
		t.Fatal("no requeue event")
	}
	for _, e := range repairEvents(events, trace.EvRepairLaunch) {
		if e.T < requeueAt {
			continue
		}
		if e.Task != requeuedStripe {
			t.Fatalf("first launch after requeue is stripe %d, want boosted stripe %d", e.Task, requeuedStripe)
		}
		break
	}
}

func TestUnrepairableReportedOnceNeverLaunched(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{
		{0, 1, 2, 3}, // loses 3 of 4 blocks: beyond n-k = 2
	})
	res, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true},
		[]topology.NodeID{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Repair
	if st == nil || st.Unrepairable != 1 || st.StripesQueued != 0 {
		t.Fatalf("repair stats = %+v, want exactly one unrepairable stripe", st)
	}
	if st.FullRedundancyAt >= 0 {
		t.Fatalf("FullRedundancyAt = %v with an unrepairable stripe", st.FullRedundancyAt)
	}
	unrep := 0
	for _, e := range repairEvents(events, trace.EvRepairQueued) {
		if e.Class == "unrepairable" {
			unrep++
		}
	}
	if unrep != 1 {
		t.Fatalf("unrepairable reported %d times, want once", unrep)
	}
	if n := len(repairEvents(events, trace.EvRepairLaunch)); n != 0 {
		t.Fatalf("unrepairable stripe launched %d block repairs", n)
	}
	if len(store.commitOrder) != 0 {
		t.Fatalf("commits on an unrepairable stripe: %v", store.commitOrder)
	}
}

func TestRepairLaunchesInScanOrder(t *testing.T) {
	// Stripe 0 loses one block (node 0); stripe 1 loses two (nodes 0, 1).
	// The queue is discovery order, so the scan's first stripe goes first
	// even though the second is closer to data loss.
	store := newRepairStore(repairCluster(t), [][]topology.NodeID{
		{0, 4, 5, 6},
		{0, 1, 6, 7},
	})
	_, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true},
		[]topology.NodeID{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	launches := repairEvents(events, trace.EvRepairLaunch)
	if len(launches) == 0 {
		t.Fatal("no launches")
	}
	if first := launches[0].Task; first != 0 {
		t.Fatalf("launched stripe %d first, want 0 (scan order)", first)
	}
}

func TestThrottleDelaysLaunch(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	// One stripe, one lost block: need = k reads = 2e6 bytes. Half of the
	// 1e6 B/s NIC is 0.5e6 B/s; the bucket starts with one second of that
	// and refills at it, so the launch waits (2e6-0.5e6)/0.5e6 = 3 virtual
	// seconds.
	res, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true, RateFraction: 0.5},
		[]topology.NodeID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	launches := repairEvents(events, trace.EvRepairLaunch)
	if len(launches) != 1 {
		t.Fatalf("launches = %d, want 1", len(launches))
	}
	if got := launches[0].T; math.Abs(got-3) > 1e-6 {
		t.Fatalf("throttled launch at %v, want t=3", got)
	}
	if res.Repair.FullRedundancyAt <= 3 {
		t.Fatalf("repair finished at %v, before its flows could run", res.Repair.FullRedundancyAt)
	}
}

// TestFailureDuringThrottleWait: a failure while the head stripe waits
// for tokens rescans and pumps again; the pump withdraws the pending
// retry and arms the same one, so the launch neither moves nor doubles.
func TestFailureDuringThrottleWait(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	_, events, err := runRepairScenario(t, store,
		repair.Config{Enabled: true, RateFraction: 0.5},
		[]topology.NodeID{0}, killAfter(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if fails := repairEvents(events, trace.EvNodeFail); len(fails) != 2 || fails[1].T >= 3 {
		t.Fatalf("node-fail events %v: want node 6 failing before the launch at t=3", fails)
	}
	launches := repairEvents(events, trace.EvRepairLaunch)
	if len(launches) != 1 || math.Abs(launches[0].T-3) > 1e-6 {
		t.Fatalf("launches %v, want one at t=3", launches)
	}
}

func TestRepairedBlockRestoresLateJobTask(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	// Job 1 (index 1) submits at t=50, long after the unthrottled repair
	// of stripe 0 block 0 commits; its task must launch non-degraded.
	store.taskOf[[2]int{0, 0}] = runtime.RepairedTask{Job: 1, Task: 0}
	late := runtime.JobSpec{
		Name:     "late",
		SubmitAt: 50,
		Tasks:    []sched.TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 0}},
	}
	res, _, err := runRepairScenario(t, store,
		repair.Config{Enabled: true},
		[]topology.NodeID{0}, nil, late)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repair == nil || res.Repair.FullRedundancyAt < 0 || res.Repair.FullRedundancyAt > 50 {
		t.Fatalf("repair did not finish before the late job: %+v", res.Repair)
	}
	rec := res.Jobs[1].Tasks[0]
	if rec.Class == sched.ClassDegraded {
		t.Fatal("late job's task ran degraded despite its block being repaired")
	}
	if rec.FinishTime == 0 {
		t.Fatal("late job's task never finished")
	}
}

// TestRepairCommitToDeadNodeRequeues: node 0 dies at t=0 and stripe 0's
// lost block is rebuilt towards node 4, whose commit reports node 4 dead,
// as the cluster's commit RPC does when the destination stopped
// answering before the runtime saw it fail. The commit runs inside a
// network completion callback, so the runtime fails node 4 on a
// zero-delay event at that instant, re-queues the stripe, rebuilds the
// block on node 5 and finishes the run.
func TestRepairCommitToDeadNodeRequeues(t *testing.T) {
	const victim = 4
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	store.commitErr = func(bp repair.BlockPlan) error {
		if bp.Dest == victim {
			return &runtime.DeadNodeError{Nodes: []topology.NodeID{victim}}
		}
		return nil
	}
	res, events, err := runRepairScenario(t, store, repair.Config{Enabled: true}, []topology.NodeID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"s0/b0", "s0/b0"}; fmt.Sprint(store.commitOrder) != fmt.Sprint(want) {
		t.Fatalf("commits %v, want %v: one refused, one kept", store.commitOrder, want)
	}
	if store.holders[0][0] != 5 {
		t.Fatalf("block 0 rebuilt on node %d, want 5", store.holders[0][0])
	}
	if st := res.Repair; st == nil || st.BlocksRepaired != 1 || st.FullRedundancyAt < 0 {
		t.Fatalf("repair stats = %+v, want one block repaired and full redundancy", st)
	}

	// The refused commit ran when the last source flow to node 4
	// arrived; node 4 fails after it, at the same virtual time.
	commit, fail := -1, -1
	for i, e := range events {
		switch {
		case e.Type == trace.EvTransferEnd && e.Dst == victim && fail < 0:
			commit = i
		case e.Type == trace.EvNodeFail && e.Node == victim:
			fail = i
		}
	}
	if commit < 0 || fail < 0 {
		t.Fatalf("no repair flow into node %d (%d) or no failure of it (%d)", victim, commit, fail)
	}
	if events[fail].T != events[commit].T {
		t.Errorf("node %d failed at %v, want the commit instant %v", victim, events[fail].T, events[commit].T)
	}
	requeued := false
	for _, e := range repairEvents(events[fail:], trace.EvRepairQueued) {
		requeued = requeued || (e.Class == "requeue" && e.Task == 0 && e.T == events[fail].T)
	}
	if !requeued {
		t.Error("stripe 0 was not re-queued with class requeue when node 4 failed")
	}
	for _, e := range repairEvents(events, trace.EvRepairDone) {
		if e.Node == victim {
			t.Errorf("a repair committed on node %d: %+v", victim, e)
		}
	}
}

// TestStripeTurnsUnrepairableWhileQueued: stripe 1 waits behind stripe
// 0's repair when a failure leaves it past the code's tolerance. Stripe 1
// is reported unrepairable once, its queued losses leave the pending
// count, and a later failure's rescan reports nothing twice.
func TestStripeTurnsUnrepairableWhileQueued(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}, {0, 1, 4, 5}})
	// A second job keeps heartbeats, and so failure polls, going.
	long := runtime.JobSpec{Name: "long", Tasks: make([]sched.TaskSpec, 4*repNodes)}
	for i := range long.Tasks {
		long.Tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: 100 + i}, Holder: 7}
	}
	res, events, err := runRepairScenario(t, store, repair.Config{Enabled: true}, []topology.NodeID{0},
		func(now float64) []topology.NodeID {
			switch {
			case now >= 3:
				return []topology.NodeID{6}
			case now >= 1:
				return []topology.NodeID{4, 5}
			}
			return nil
		}, long)
	if err != nil {
		t.Fatal(err)
	}
	if fails := repairEvents(events, trace.EvNodeFail); len(fails) != 4 {
		t.Fatalf("node-fail events %v: want nodes 0, 4, 5 and 6", fails)
	}
	var unrep []trace.Event
	for _, e := range repairEvents(events, trace.EvRepairQueued) {
		if e.Class == "unrepairable" {
			unrep = append(unrep, e)
		}
	}
	if len(unrep) != 1 || unrep[0].Task != 1 || unrep[0].N != 3 {
		t.Fatalf("unrepairable events %v: want stripe 1 once, with 3 lost", unrep)
	}
	for _, e := range repairEvents(events, trace.EvRepairLaunch) {
		if e.Task == 1 {
			t.Fatalf("unrepairable stripe 1 launched at %v", e.T)
		}
	}
	if st := res.Repair; st == nil || st.Unrepairable != 1 || st.BlocksRepaired != 1 {
		t.Fatalf("repair stats %+v: want stripe 0's block rebuilt and stripe 1 unrepairable", st)
	}
}

// TestRepairCommitErrorStopsRun: a stripe's two rebuilt blocks arrive in
// one network callback; the first commit fails with a plain error, which
// aborts the run, and the second block is not committed after it.
func TestRepairCommitErrorStopsRun(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	store.commitErr = func(repair.BlockPlan) error { return errors.New("disk full") }
	_, _, err := runRepairScenario(t, store, repair.Config{Enabled: true}, []topology.NodeID{0, 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("run returned %v, want the commit's error", err)
	}
	if len(store.commitOrder) != 1 {
		t.Fatalf("commits %v after the first failed, want just that one", store.commitOrder)
	}
}

// TestRepairRefPastTaskCount: a commit naming a task past its job's task
// count (a padded last stripe's block) restores nothing, and the run
// finishes.
func TestRepairRefPastTaskCount(t *testing.T) {
	c := repairCluster(t)
	store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
	store.taskOf[[2]int{0, 0}] = runtime.RepairedTask{Job: 0, Task: 5}
	res, _, err := runRepairScenario(t, store, repair.Config{Enabled: true}, []topology.NodeID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repair == nil || res.Repair.BlocksRepaired != 1 {
		t.Fatalf("repair stats %+v: want one block rebuilt", res.Repair)
	}
}
