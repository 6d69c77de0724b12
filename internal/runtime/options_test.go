package runtime_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// mustLRC builds an LRC code for the test's known-good parameters.
func mustLRC(t testing.TB, k, l, g int) *erasure.LRC {
	t.Helper()
	c, err := erasure.NewLRC(k, l, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// slowBackend is hedgeBackend with a settable map time.
type slowBackend struct {
	*hedgeBackend
	mapTime float64
}

func (b slowBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	return b.mapTime, nil
}

// runDirect is runSim on runtime.Run itself, under a fake backend.
func runDirect(t *testing.T, o runtime.Options, meta jobsched.JobMeta, mapTime float64, reducers int) ([]trace.Event, error) {
	t.Helper()
	cluster, err := topology.New(topology.Config{
		Nodes:           goldenNodes,
		Racks:           goldenRacks,
		MapSlotsPerNode: goldenMapSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]sched.TaskSpec, goldenBlocks)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(i % goldenNodes)}
	}
	var mem trace.Memory
	o.Trace = &mem
	_, err = runtime.Run(runtime.Params{Cluster: cluster, Options: o},
		slowBackend{&hedgeBackend{cluster: cluster}, mapTime},
		[]runtime.JobSpec{{Name: "golden", Tasks: tasks, NumReducers: reducers, JobMeta: meta}})
	return mem.Events(), err
}

// TestFeaturesTable holds every entry point to one rule: a bad Options
// or JobMeta value, or a job whose reducers the cluster has no slot for, is
// rejected with the same sentinel and the same message (after the entry
// point's own prefix) by mapred.Run, minimr.Run and runtime.Run, and a zero
// value selects the same default in each.
func TestFeaturesTable(t *testing.T) {
	entries := []struct {
		name string
		run  func(*testing.T, runtime.Options, jobsched.JobMeta, float64, int) ([]trace.Event, error)
	}{
		{"mapred", runSim},
		{"minimr", runReal},
		{"runtime", runDirect},
	}
	secondHeartbeatAt3 := func(events []trace.Event, err error) string {
		if err != nil {
			return err.Error()
		}
		var at []float64
		for _, e := range filterType(events, trace.EvHeartbeat) {
			if e.Node == 1 {
				at = append(at, e.T)
			}
		}
		if len(at) < 2 || at[1]-at[0] != 3 {
			return "node 1's heartbeats are not 3 s apart"
		}
		return ""
	}
	mapsRun := func(events []trace.Event, err error) string {
		if n := len(filterType(events, trace.EvTaskLaunch)); err != nil || n != goldenBlocks {
			return fmt.Sprintf("want %d maps and no error, got %d and %v", goldenBlocks, n, err)
		}
		return ""
	}
	cases := []struct {
		name     string
		o        runtime.Options
		meta     jobsched.JobMeta
		reducers int // the scenario cluster has no reduce slots
		// A rejection: the sentinel (if the rule has one) and a word of
		// the message. Or a default: check reads the run's outcome.
		sentinel error
		word     string
		check    func([]trace.Event, error) string
	}{
		{name: "negative bandwidth", o: runtime.Options{RackBps: -1}, sentinel: runtime.ErrNegativeBandwidth, word: "bandwidth"},
		{name: "NaN bandwidth", o: runtime.Options{NodeBps: math.NaN()}, sentinel: runtime.ErrNegativeBandwidth, word: "bandwidth"},
		{name: "negative heartbeat", o: runtime.Options{HeartbeatInterval: -3}, sentinel: runtime.ErrBadHeartbeat, word: "heartbeat"},
		{name: "NaN heartbeat", o: runtime.Options{HeartbeatInterval: math.NaN()}, sentinel: runtime.ErrBadHeartbeat, word: "heartbeat"},
		{name: "infinite heartbeat", o: runtime.Options{HeartbeatInterval: math.Inf(1)}, sentinel: runtime.ErrBadHeartbeat, word: "heartbeat"},
		{name: "negative hedge extra", o: runtime.Options{Hedge: runtime.HedgePolicy{Extra: -1}}, word: "hedge"},
		{name: "hedge quantile of 1", o: runtime.Options{Hedge: runtime.HedgePolicy{HedgeQuantile: 1}}, word: "hedge"},
		{name: "repair fraction above 1", o: runtime.Options{Repair: repair.Config{Enabled: true, RateFraction: 2}}, word: "repair"},
		{name: "negative repair fraction", o: runtime.Options{Repair: repair.Config{Enabled: true, RateFraction: -1}}, word: "repair"},
		{name: "repair fraction of nothing", o: runtime.Options{Repair: repair.Config{Enabled: true, RateFraction: 0.25}}, word: "repair"},
		{name: "unknown job policy", o: runtime.Options{JobSched: jobsched.Config{Policy: 99}}, word: "jobsched"},
		{name: "negative quota", o: runtime.Options{JobSched: jobsched.Config{Policy: jobsched.Quota, QuotaSlots: -1}}, word: "jobsched"},
		{name: "negative weight", meta: jobsched.JobMeta{Weight: -1}, sentinel: jobsched.ErrBadWeight, word: "weight"},
		{name: "NaN deadline", meta: jobsched.JobMeta{Deadline: math.NaN()}, sentinel: jobsched.ErrBadDeadline, word: "deadline"},
		{name: "reducers without reduce slots", reducers: 2, word: `job "golden": 2 reduce tasks, but the cluster has no reduce slots`},

		{name: "zero heartbeat is 3 s", check: secondHeartbeatAt3},
		{name: "map-only job without reduce slots runs", check: mapsRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i, en := range entries {
				events, err := en.run(t, tc.o, tc.meta, goldenMapTime, tc.reducers)
				if tc.check != nil {
					if msg := tc.check(events, err); msg != "" {
						t.Errorf("%s: %s", en.name, msg)
					}
					continue
				}
				if err == nil {
					t.Errorf("%s accepted it", en.name)
					continue
				}
				if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
					t.Errorf("%s: %v, want errors.Is(%v)", en.name, err, tc.sentinel)
				}
				msg, ok := strings.CutPrefix(err.Error(), en.name+": ")
				if !ok || !strings.Contains(msg, tc.word) {
					t.Errorf("%s: %q, want %q-prefixed and about %q", en.name, err, en.name, tc.word)
				}
				if i == 0 {
					first = msg
				} else if msg != first {
					t.Errorf("%s says %q where %s says %q", en.name, msg, entries[0].name, first)
				}
			}
		})
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    runtime.Options
		want error // nil means valid
	}{
		{"zero value is valid", runtime.Options{}, nil},
		{"explicit settings are valid", runtime.Options{Scheduler: sched.KindBDF, RackBps: 1e9, HeartbeatInterval: 1}, nil},
		{"negative rack bandwidth", runtime.Options{RackBps: -1}, runtime.ErrNegativeBandwidth},
		{"negative node bandwidth", runtime.Options{NodeBps: -1}, runtime.ErrNegativeBandwidth},
		{"negative core bandwidth", runtime.Options{CoreBps: -1}, runtime.ErrNegativeBandwidth},
		{"NaN bandwidth", runtime.Options{RackBps: math.NaN()}, runtime.ErrNegativeBandwidth},
		{"negative heartbeat", runtime.Options{HeartbeatInterval: -3}, runtime.ErrBadHeartbeat},
		{"NaN heartbeat", runtime.Options{HeartbeatInterval: math.NaN()}, runtime.ErrBadHeartbeat},
		{"infinite heartbeat", runtime.Options{HeartbeatInterval: math.Inf(1)}, runtime.ErrBadHeartbeat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate(nil)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestOptionsValidateDefaults: the zero Options are the paper's master,
// for every engine: LF over a fluid network, 3 s heartbeats and RandomK
// degraded sources (random k of n−1).
func TestOptionsValidateDefaults(t *testing.T) {
	var o runtime.Options
	if err := o.Validate(nil); err != nil {
		t.Fatal(err)
	}
	want := runtime.Options{
		Scheduler:         sched.KindLF,
		NetMode:           netsim.FluidFairSharing,
		HeartbeatInterval: 3,
		SourceStrategy:    dfs.RandomK,
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("defaults = %+v, want %+v", o, want)
	}
}

// TestFeaturesDefaultSourceStrategy: a zero SourceStrategy is RandomK in
// both engines. With node 0 failed, a run that leaves it unset traces
// exactly what a run that names RandomK traces, degraded reads included.
func TestFeaturesDefaultSourceStrategy(t *testing.T) {
	for _, en := range []struct {
		name string
		run  func(*testing.T, runtime.Options, jobsched.JobMeta, float64, int) ([]trace.Event, error)
	}{
		{"mapred", runSim},
		{"minimr", runReal},
	} {
		t.Run(en.name, func(t *testing.T) {
			o := runtime.Options{Scheduler: sched.KindEDF, HeartbeatInterval: goldenHeartbeat}
			unset, err := en.run(t, o, jobsched.JobMeta{}, goldenMapTime, 0)
			if err != nil {
				t.Fatal(err)
			}
			o.SourceStrategy = dfs.RandomK
			named, err := en.run(t, o, jobsched.JobMeta{}, goldenMapTime, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(filterType(unset, trace.EvDegradedPlan)) == 0 {
				t.Fatal("no degraded reads: the scenario does not exercise the source strategy")
			}
			if !reflect.DeepEqual(unset, named) {
				t.Error("a zero SourceStrategy traces differently from RandomK")
			}
		})
	}
}

// TestDegradedReadTime pins EDF's threshold, (R-1)/R · r · S / W for R
// racks, r blocks read per degraded read, block size S and rack download
// bandwidth W, on the shapes the engines hand it.
func TestDegradedReadTime(t *testing.T) {
	twoLevel := func(nodes, racks int) *topology.Cluster {
		return topology.MustNew(topology.Config{Nodes: nodes, Racks: racks, MapSlotsPerNode: 1})
	}
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3, NodeBps: netsim.Gbps, EdgeOversub: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fatTree, err := topology.New(topology.Config{Spec: &spec, MapSlotsPerNode: 1, ReduceSlotsPerNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	leafBps := spec.Tiers[0].LinkBps
	for _, tc := range []struct {
		name       string
		cluster    *topology.Cluster
		code       erasure.Coder
		blockBytes float64
		rackBps    float64
		want       float64
	}{
		// 3/4 · 15 · 128 MB / 1 Gbps.
		{"paper default", twoLevel(40, 4), erasure.MustNew(20, 15), 128e6, netsim.Gbps, 11.52},
		// A lost native block reads its 5-block local group, not k = 10:
		// half of RS(14,10) on the same cluster.
		{"LRC(10,2,2) at half of RS(14,10)", twoLevel(16, 4), mustLRC(t, 10, 2, 2), 64e6, 1e9,
			0.5 * 0.75 * 10 * 64e6 / 1e9},
		// The spec's leaf (edge) tier stands in for a zero rack bandwidth.
		{"fat tree falls back to the leaf tier", fatTree, erasure.MustNew(6, 4), 16e6, 0,
			0.75 * 4 * 16e6 / leafBps},
		{"unlimited bandwidth is 0", twoLevel(40, 4), erasure.MustNew(20, 15), 128e6, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runtime.DegradedReadTime(tc.cluster, tc.code, tc.blockBytes, tc.rackBps)
			if math.Abs(got-tc.want) > 1e-9*tc.want {
				t.Errorf("DegradedReadTime = %v, want %v", got, tc.want)
			}
		})
	}
	if !(leafBps > 0) || leafBps == netsim.Gbps {
		t.Fatalf("fat tree leaf tier %v does not tell the fallback from the NIC", leafBps)
	}
}
