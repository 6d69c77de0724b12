package mapred_test

import (
	"bytes"
	"reflect"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// fig4TraceConfig replicates the exp package's Figure 4 worked example:
// four nodes in two racks, one map slot each, (4,2) code, twelve blocks
// with the paper's explicit placement, node 0 failed, BDF scheduling.
func fig4TraceConfig(sink trace.Sink) (mapred.Config, []mapred.JobSpec) {
	assign := make([][]topology.NodeID, 6)
	for i := 0; i < 6; i++ {
		if i < 3 {
			assign[i] = []topology.NodeID{0, 2, 1, 3}
		} else {
			assign[i] = []topology.NodeID{1, 3, 0, 2}
		}
	}
	cfg := mapred.DefaultConfig()
	cfg.Nodes = 4
	cfg.Racks = 2
	cfg.MapSlotsPerNode = 1
	cfg.ReduceSlotsPerNode = 0
	cfg.N, cfg.K = 4, 2
	cfg.NumBlocks = 12
	cfg.BlockSizeBytes = 128e6
	cfg.RackBps = 100 * netsim.Mbps
	cfg.NodeBps = 100 * netsim.Mbps
	cfg.Policy = placement.Explicit{Assignments: assign}
	cfg.Scheduler = mapred.BDF
	cfg.FailNodes = []topology.NodeID{0}
	cfg.HeartbeatInterval = 0.25
	cfg.OutOfBandHeartbeats = true
	cfg.SourceStrategy = dfs.PreferSameRack
	cfg.Trace = sink
	job := mapred.JobSpec{
		Name:    "fig4",
		MapTime: mapred.Dist{Mean: 10, Std: 0},
	}
	return cfg, []mapred.JobSpec{job}
}

func runFig4Trace(t *testing.T) (*mapred.Result, []trace.Event) {
	t.Helper()
	var mem trace.Memory
	cfg, jobs := fig4TraceConfig(&mem)
	res, err := mapred.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, mem.Events()
}

func TestTraceMonotoneVirtualTime(t *testing.T) {
	_, events := runFig4Trace(t)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Type != trace.EvRunStart {
		t.Errorf("first event %q, want %q", events[0].Type, trace.EvRunStart)
	}
	if events[len(events)-1].Type != trace.EvRunEnd {
		t.Errorf("last event %q, want %q", events[len(events)-1].Type, trace.EvRunEnd)
	}
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("virtual time went backwards at event %d: %v after %v",
				i, events[i], events[i-1])
		}
	}
}

func TestTraceLaunchBeforeFinish(t *testing.T) {
	_, events := runFig4Trace(t)
	type key struct{ job, task int }
	launched := map[key]bool{}
	finished := map[key]int{}
	for _, e := range events {
		k := key{e.Job, e.Task}
		switch e.Type {
		case trace.EvTaskLaunch:
			launched[k] = true
		case trace.EvTaskFinish:
			if !launched[k] {
				t.Fatalf("task %v finished without a launch", k)
			}
			finished[k]++
		}
	}
	if len(finished) != 12 {
		t.Fatalf("finished tasks = %d, want 12", len(finished))
	}
	for k, n := range finished {
		if n != 1 {
			t.Errorf("task %v finished %d times", k, n)
		}
	}
}

func TestTraceOneDegradedPlanPerDegradedLaunch(t *testing.T) {
	_, events := runFig4Trace(t)
	type key struct{ job, task int }
	degradedLaunches := map[key]int{}
	plans := map[key]int{}
	for _, e := range events {
		k := key{e.Job, e.Task}
		switch e.Type {
		case trace.EvTaskLaunch:
			if e.Class == sched.ClassDegraded.String() {
				degradedLaunches[k]++
			}
		case trace.EvDegradedPlan:
			plans[k]++
			// The fig4 degraded reads download k=2 source blocks.
			if e.N != 2 {
				t.Errorf("degraded plan for %v has %d sources, want 2", k, e.N)
			}
		}
	}
	if len(degradedLaunches) != 3 {
		t.Fatalf("degraded launches = %d, want 3 (fig4's lost blocks)", len(degradedLaunches))
	}
	if !reflect.DeepEqual(plans, degradedLaunches) {
		t.Fatalf("degraded-read plans %v != degraded launches %v", plans, degradedLaunches)
	}
}

// TestTraceJSONLRoundTripRebuildsResult is the acceptance check for the
// trace layer: serialize the fig4 run's events as JSONL, read them back,
// and rebuild the Result and ASCII timeline purely from the trace — both
// must match the engine's own output exactly (the timeline byte for byte).
func TestTraceJSONLRoundTripRebuildsResult(t *testing.T) {
	res, events := runFig4Trace(t)

	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, events) {
		t.Fatal("JSONL round trip altered the event stream")
	}

	b := runtime.NewBuilder()
	for _, e := range decoded {
		b.Consume(&e)
	}
	rebuilt, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, res) {
		t.Fatalf("rebuilt result differs:\n got %+v\nwant %+v", rebuilt, res)
	}
	want := runtime.Timeline(res, 0, 80)
	got := runtime.Timeline(rebuilt, 0, 80)
	if want == "" {
		t.Fatal("empty reference timeline")
	}
	if got != want {
		t.Fatalf("timeline reconstructed from trace differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
