package runtime_test

import (
	"errors"
	"strings"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// planFails is the late-fetch scenario's backend with a PlanInput that
// fails every map.
type planFails struct{ *lateFetchBackend }

func (b *planFails) PlanInput(int, int, sched.Class, topology.NodeID, runtime.SpareBudget) (runtime.InputPlan, error) {
	return runtime.InputPlan{}, errors.New("plan: no route")
}

// reduceFails is the late-fetch scenario's backend with an AwaitReduce
// that fails with an error naming no dead node.
type reduceFails struct{ *lateFetchBackend }

func (b *reduceFails) AwaitReduce(int, int, topology.NodeID) error {
	return errors.New("reduce: corrupt output")
}

// scanFails and planRepairFails are the repair scenario's store with a
// failing healer half.
type scanFails struct{ *repairStore }

func (b *scanFails) ScanLostBlocks([]topology.NodeID) ([]repair.StripePlan, error) {
	return nil, errors.New("store: scan offline")
}

type planRepairFails struct{ *repairStore }

func (b *planRepairFails) PlanStripeRepair(repair.Key) (repair.StripePlan, error) {
	return repair.StripePlan{}, errors.New("store: plan offline")
}

// TestBackendFailuresAbortRun: an error a backend returns that names no
// dead node aborts the run with that error, wherever in the lifecycle it
// comes back: planning a map's input, awaiting a reduce, scanning for
// lost blocks, or planning a repair.
func TestBackendFailuresAbortRun(t *testing.T) {
	late := func(c *topology.Cluster) *lateFetchBackend {
		return &lateFetchBackend{hedgeBackend: &hedgeBackend{cluster: c}, victim: -1}
	}
	for _, tc := range []struct {
		name    string
		backend func(*topology.Cluster) runtime.Backend
		want    string
	}{
		{"map input", func(c *topology.Cluster) runtime.Backend { return &planFails{late(c)} }, "plan: no route"},
		{"reduce", func(c *topology.Cluster) runtime.Backend { return &reduceFails{late(c)} }, "reduce: corrupt output"},
	} {
		events, err := runLateScenario(tc.backend, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: run returned %v, want %q", tc.name, err, tc.want)
		}
		if n := len(filterType(events, trace.EvJobFinish)); n != 0 {
			t.Errorf("%s: %d jobs finished after the failure", tc.name, n)
		}
	}

	for _, tc := range []struct {
		name    string
		backend func(*repairStore) runtime.Backend
		want    string
	}{
		{"repair scan", func(s *repairStore) runtime.Backend { return &scanFails{s} }, "repair scan: store: scan offline"},
		{"repair plan", func(s *repairStore) runtime.Backend { return &planRepairFails{s} }, "repair plan for f#0: store: plan offline"},
	} {
		c := repairCluster(t)
		store := newRepairStore(c, [][]topology.NodeID{{0, 1, 2, 3}})
		_, err := runtime.Run(runtime.Params{
			Name:    "repair-test",
			Cluster: c,
			Options: runtime.Options{NodeBps: repNodeBps, HeartbeatInterval: 1, Repair: repair.Config{Enabled: true}},
			ToFail:  []topology.NodeID{0},
		}, tc.backend(store), []runtime.JobSpec{{Name: "fg", Tasks: []sched.TaskSpec{{Block: erasure.BlockID{Stripe: 99}, Holder: 7}}}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run returned %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	if _, err := runtime.Run(runtime.Params{Name: "nil-backend"}, nil, nil); err == nil || err.Error() != "nil-backend: nil backend" {
		t.Errorf("a run without a backend returned %v", err)
	}
}

// TestEmptyJobResults: the per-job means of a job with nothing of a kind
// are zero, and a job whose map phase took no time renders no timeline.
func TestEmptyJobResults(t *testing.T) {
	jr := runtime.JobResult{Tasks: []runtime.TaskRecord{{Class: sched.ClassDegraded}}}
	if jr.MeanNormalMapRuntime() != 0 || jr.MeanReduceRuntime() != 0 {
		t.Errorf("a job of one degraded map and no reducers: normal-map mean %v, reduce mean %v, want 0",
			jr.MeanNormalMapRuntime(), jr.MeanReduceRuntime())
	}
	if m := (&runtime.JobResult{}).MeanDegradedReadTime(); m != 0 {
		t.Errorf("a job without degraded maps: degraded-read mean %v, want 0", m)
	}
	res := &runtime.Result{Jobs: []runtime.JobResult{{FirstMapLaunch: 5, MapPhaseEnd: 5}}}
	if s := runtime.Timeline(res, 0, 40); s != "" {
		t.Errorf("a zero-length map phase rendered %q", s)
	}
}
