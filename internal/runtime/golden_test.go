package runtime_test

import (
	"fmt"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// The golden scenario pins both engines to the same cluster, placement,
// failure and deterministic task costs, with unlimited bandwidth so the
// engines' only RNG divergence (degraded-read source choice) cannot affect
// timing. Both backends must then drive the shared runtime to the exact
// same scheduler decision sequence.
const (
	goldenNodes     = 8
	goldenRacks     = 2
	goldenMapSlots  = 2
	goldenBlocks    = 16
	goldenBlockSize = 64 * 1024
	goldenMapTime   = 5.0
	goldenHeartbeat = 1.0
)

// decision is one scheduler choice: which task went where, and why.
type decision struct {
	Job, Task, Node int
	Class           string
}

// filterType returns the events of the given type, in order.
func filterType(events []trace.Event, typ trace.Type) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func decisionsOf(events []trace.Event) []decision {
	var out []decision
	for _, e := range filterType(events, trace.EvTaskLaunch) {
		out = append(out, decision{Job: e.Job, Task: e.Task, Node: e.Node, Class: e.Class})
	}
	return out
}

// goldenSim runs the simulated-cost backend (mapred) over the scenario.
func goldenSim(t *testing.T, kind sched.Kind) []decision {
	t.Helper()
	events, err := runSim(t, runtime.Options{Scheduler: kind, HeartbeatInterval: goldenHeartbeat}, jobsched.JobMeta{}, goldenMapTime, 0)
	if err != nil {
		t.Fatalf("mapred %v: %v", kind, err)
	}
	return decisionsOf(events)
}

// runSim is the scenario on mapred with the given options, job metadata,
// per-map time and reducer count. The cluster has no reduce slots.
func runSim(t *testing.T, o runtime.Options, meta jobsched.JobMeta, mapTime float64, reducers int) ([]trace.Event, error) {
	t.Helper()
	var mem trace.Memory
	o.Seed, o.Trace = 1, &mem
	cfg := mapred.Config{
		Nodes:           goldenNodes,
		Racks:           goldenRacks,
		MapSlotsPerNode: goldenMapSlots,
		N:               4,
		K:               2,
		BlockSizeBytes:  goldenBlockSize,
		NumBlocks:       goldenBlocks,
		Policy:          placement.RoundRobin{},
		Options:         o,
		FailNodes:       []topology.NodeID{0},
	}
	job := mapred.JobSpec{
		Name:           "golden",
		MapTime:        mapred.Dist{Mean: mapTime, Std: 0},
		ReduceTime:     mapred.Dist{Mean: mapTime, Std: 0},
		NumReduceTasks: reducers,
		JobMeta:        meta,
	}
	_, err := mapred.Run(cfg, []mapred.JobSpec{job})
	return mem.Events(), err
}

// goldenReal runs the real-bytes backend (minimr) over the same scenario.
func goldenReal(t *testing.T, kind sched.Kind) []decision {
	t.Helper()
	events, err := runReal(t, runtime.Options{Scheduler: kind, HeartbeatInterval: goldenHeartbeat}, jobsched.JobMeta{}, goldenMapTime, 0)
	if err != nil {
		t.Fatalf("minimr %v: %v", kind, err)
	}
	return decisionsOf(events)
}

// runReal is runSim on minimr.
func runReal(t *testing.T, o runtime.Options, meta jobsched.JobMeta, mapTime float64, reducers int) ([]trace.Event, error) {
	t.Helper()
	cluster, err := topology.New(topology.Config{
		Nodes:           goldenNodes,
		Racks:           goldenRacks,
		MapSlotsPerNode: goldenMapSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(cluster, erasure.MustNew(4, 2), goldenBlockSize,
		placement.RoundRobin{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input", make([]byte, goldenBlocks*goldenBlockSize)); err != nil {
		t.Fatal(err)
	}
	cluster.FailNode(0)

	var mem trace.Memory
	o.Seed, o.Trace = 1, &mem
	job := minimr.Job{
		Name:        "golden",
		Input:       "input",
		Map:         func(block []byte, emit func(k, v string)) {},
		MapCost:     minimr.Cost{Fixed: mapTime},
		NumReducers: reducers,
		JobMeta:     meta,
	}
	if reducers > 0 {
		job.Reduce = func(string, []string, func(k, v string)) {}
	}
	_, err = minimr.Run(fs, o, []minimr.Job{job})
	return mem.Events(), err
}

// TestGoldenBackendEquivalence is the refactor's keystone: on a shared
// scenario, the simulated-cost and real-bytes backends must produce
// identical scheduler decision sequences through the shared runtime, for
// every scheduling algorithm.
func TestGoldenBackendEquivalence(t *testing.T) {
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindBDF, sched.KindEDF} {
		t.Run(kind.String(), func(t *testing.T) {
			sim := goldenSim(t, kind)
			real := goldenReal(t, kind)
			if len(sim) != goldenBlocks || len(real) != goldenBlocks {
				t.Fatalf("decision counts: sim=%d real=%d, want %d each",
					len(sim), len(real), goldenBlocks)
			}
			var degraded int
			for i := range sim {
				if sim[i] != real[i] {
					t.Errorf("decision %d diverges:\n  sim:  %+v\n  real: %+v", i, sim[i], real[i])
				}
				if sim[i].Class == sched.ClassDegraded.String() {
					degraded++
				}
			}
			// Node 0 holds four native blocks under round-robin (16
			// natives over 8 stripes of (4,2) on 8 nodes); all four must
			// go degraded.
			if degraded != 4 {
				t.Errorf("degraded decisions = %d, want 4", degraded)
			}
		})
	}
}

// TestGoldenSchedulersDiffer guards the guard: if every scheduler made the
// same decisions the equivalence test would be vacuous.
func TestGoldenSchedulersDiffer(t *testing.T) {
	seqs := map[sched.Kind][]decision{}
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindBDF} {
		seqs[kind] = goldenSim(t, kind)
	}
	if fmt.Sprint(seqs[sched.KindLF]) == fmt.Sprint(seqs[sched.KindBDF]) {
		t.Fatal("LF and BDF made identical decision sequences; scenario too weak")
	}
}
