package runtime

import (
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// refuseAll is a map scheduler that refuses every task, as EDF does when
// its locality rule is made strict (ts < mean): with every node's pending
// local work equal, no node is below the mean, and no degraded task is
// ever admitted.
type refuseAll struct{}

func (refuseAll) Assign(*sched.Env, sched.Heartbeat) []sched.Assignment { return nil }

// stallBackend reads a degraded block as 1 MB from each of the two
// lowest-ID live nodes other than the reader and maps it in 5 s; it
// stores nothing, so its healer half finds nothing to repair, and a map
// has no output.
type stallBackend struct{ cluster *topology.Cluster }

func (b stallBackend) PlanInput(_, _ int, _ sched.Class, node topology.NodeID, _ SpareBudget, plan *InputPlan) error {
	for i := 0; i < b.cluster.NumNodes() && len(plan.Transfers) < 2; i++ {
		if id := topology.NodeID(i); b.cluster.Alive(id) && id != node {
			plan.Transfers = append(plan.Transfers, Transfer{Src: id, Bytes: 1e6})
		}
	}
	return nil
}
func (stallBackend) Execute(int, int, topology.NodeID, any) (float64, any) { return 5, nil }
func (stallBackend) AwaitOutput(int, int, topology.NodeID, any) ([]Chunk, error) {
	return nil, nil
}
func (stallBackend) Deliver(int, int, topology.NodeID, Chunk) error                { return nil }
func (stallBackend) StartReduce(int, int, topology.NodeID, float64) float64        { return 1 }
func (stallBackend) AwaitReduce(int, int, topology.NodeID) error                   { return nil }
func (stallBackend) ReduceReset(int, int)                                          {}
func (stallBackend) ScanLostBlocks([]topology.NodeID) ([]repair.StripePlan, error) { return nil, nil }
func (stallBackend) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	return repair.StripePlan{Key: key}, nil
}
func (stallBackend) CommitRepair(repair.Key, repair.BlockPlan) ([]RepairedTask, error) {
	return nil, nil
}
func (stallBackend) RepairBlockBytes() float64 { return 1e6 }

// runStallScenario runs a job of four degraded maps (node 0, their
// holder, is failed before the run) and the given reducers under the
// given scheduler kind and degraded-read estimate, on nodes nodes in racks
// racks, heartbeating every second.
func runStallScenario(t *testing.T, kind sched.Kind, nodes, racks, reducers int, degradedRead float64) ([]trace.Event, error) {
	t.Helper()
	cluster := topology.MustNew(topology.Config{Nodes: nodes, Racks: racks, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	tasks := make([]sched.TaskSpec, 4)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: 0}
	}
	var mem trace.Memory
	_, err := Run(Params{
		Name:    "stall-test",
		Cluster: cluster,
		Options: Options{
			NodeBps:           1e6,
			HeartbeatInterval: 1,
			Scheduler:         kind,
			Trace:             &mem,
		},
		MapTime:          5,
		DegradedReadTime: degradedRead,
		ToFail:           []topology.NodeID{0},
	}, stallBackend{cluster}, []JobSpec{{Name: "j", Tasks: tasks, NumReducers: reducers}})
	return mem.Events(), err
}

// TestStallFailsAtOnce: a scheduler that refuses every task leaves the
// run quiet — nothing in flight but a reducer waiting for maps, nothing
// to come — and the runtime names
// the stall within a few heartbeat rounds instead of heartbeating to the
// 1e7 s virtual-time limit.
func TestStallFailsAtOnce(t *testing.T) {
	defer func(saved func(sched.Kind, int) (sched.Scheduler, error)) { newScheduler = saved }(newScheduler)
	newScheduler = func(sched.Kind, int) (sched.Scheduler, error) { return refuseAll{}, nil }
	start := time.Now()
	events, err := runStallScenario(t, sched.KindEDF, 8, 2, 1, 10)
	if took := time.Since(start); took > time.Second {
		t.Errorf("the stall took %v to detect", took)
	}
	if err == nil || !strings.Contains(err.Error(), "stall-test: stalled at") || !strings.Contains(err.Error(), "0/1 jobs finished") {
		t.Fatalf("run returned %v, want the stall named", err)
	}
	if last := events[len(events)-1].T; last > 100 {
		t.Errorf("the run went on to t=%v before failing", last)
	}
}

// TestWaitingSchedulersAreNotStalls: delay scheduling holds every task
// back for up to three opportunities per rack while the run is quiet —
// on more racks than a third of the nodes, for more than a heartbeat
// round — and its run finishes. So does EDF's with a degraded-read
// estimate far above the reads' real time, where its rack pacing reads
// the clock.
func TestWaitingSchedulersAreNotStalls(t *testing.T) {
	for _, tc := range []struct {
		kind         sched.Kind
		nodes, racks int
		degradedRead float64
	}{
		{sched.KindDelayLF, 6, 3, 0},
		{sched.KindEDF, 8, 2, 200},
	} {
		if _, err := runStallScenario(t, tc.kind, tc.nodes, tc.racks, 0, tc.degradedRead); err != nil {
			t.Fatalf("%v on %d nodes in %d racks: %v", tc.kind, tc.nodes, tc.racks, err)
		}
	}
}
