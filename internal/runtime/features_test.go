package runtime_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// slowBackend is hedgeBackend with a settable map time.
type slowBackend struct {
	*hedgeBackend
	mapTime float64
}

func (b slowBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	return b.mapTime, nil
}

// runDirect is runSim on runtime.Run itself, under a fake backend.
func runDirect(t *testing.T, kind sched.Kind, f runtime.Features, meta jobsched.JobMeta, mapTime float64, reducers int) ([]trace.Event, error) {
	t.Helper()
	cluster, err := topology.New(topology.Config{
		Nodes:           goldenNodes,
		Racks:           goldenRacks,
		MapSlotsPerNode: goldenMapSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net, err := netsim.New(eng, cluster, netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	scheduler, err := kind.New(cluster.NumRacks())
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]sched.TaskSpec, goldenBlocks)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(i % goldenNodes)}
	}
	var mem trace.Memory
	_, err = runtime.Run(runtime.Params{
		Engine:    eng,
		Cluster:   cluster,
		Net:       net,
		Scheduler: scheduler,
		Env:       &sched.Env{Cluster: cluster},
		Features:  f,
		Sink:      &mem,
	}, slowBackend{&hedgeBackend{cluster: cluster}, mapTime},
		[]runtime.JobSpec{{Name: "golden", Tasks: tasks, NumReducers: reducers, JobMeta: meta}})
	return mem.Events(), err
}

// TestFeaturesTable holds every entry point to one rule: a bad Features
// or JobMeta value, or a job whose reducers the cluster has no slot for, is
// rejected with the same sentinel and the same message (after the entry
// point's own prefix) by mapred.Run, minimr.Run and runtime.Run, and a zero
// value selects the same default in each.
func TestFeaturesTable(t *testing.T) {
	entries := []struct {
		name string
		run  func(*testing.T, sched.Kind, runtime.Features, jobsched.JobMeta, float64, int) ([]trace.Event, error)
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
		for _, e := range trace.FilterType(events, trace.EvHeartbeat) {
			if e.Node == 1 {
				at = append(at, e.T)
			}
		}
		if len(at) < 2 || at[1]-at[0] != 3 {
			return "node 1's heartbeats are not 3 s apart"
		}
		return ""
	}
	abortsAt1e7 := func(_ []trace.Event, err error) string {
		if err == nil || !strings.Contains(err.Error(), "exceeded MaxSimTime 10000000s") {
			return fmt.Sprint("want the 1e7 s abort, got: ", err)
		}
		return ""
	}
	mapsRun := func(events []trace.Event, err error) string {
		if n := len(trace.FilterType(events, trace.EvTaskScheduled)); err != nil || n != goldenBlocks {
			return fmt.Sprintf("want %d maps and no error, got %d and %v", goldenBlocks, n, err)
		}
		return ""
	}
	cases := []struct {
		name     string
		f        runtime.Features
		meta     jobsched.JobMeta
		mapTime  float64
		reducers int // the scenario cluster has no reduce slots
		// A rejection: the sentinel (if the rule has one) and a word of
		// the message. Or a default: check reads the run's outcome.
		sentinel error
		word     string
		check    func([]trace.Event, error) string
	}{
		{name: "negative heartbeat", f: runtime.Features{HeartbeatInterval: -3}, sentinel: minimr.ErrBadHeartbeat, word: "heartbeat"},
		{name: "NaN heartbeat", f: runtime.Features{HeartbeatInterval: math.NaN()}, sentinel: runtime.ErrBadHeartbeat, word: "heartbeat"},
		{name: "negative hedge extra", f: runtime.Features{Hedge: runtime.HedgePolicy{Extra: -1}}, word: "hedge"},
		{name: "hedge quantile of 1", f: runtime.Features{Hedge: runtime.HedgePolicy{HedgeQuantile: 1}}, word: "hedge"},
		{name: "repair fraction above 1", f: runtime.Features{Repair: repair.Config{Enabled: true, RateFraction: 2}}, word: "repair"},
		{name: "negative repair fraction", f: runtime.Features{Repair: repair.Config{Enabled: true, RateFraction: -1}}, word: "repair"},
		{name: "repair fraction of nothing", f: runtime.Features{Repair: repair.Config{Enabled: true, RateFraction: 0.25}}, word: "repair"},
		{name: "unknown job policy", f: runtime.Features{JobSched: jobsched.Config{Policy: 99}}, word: "jobsched"},
		{name: "negative quota", f: runtime.Features{JobSched: jobsched.Config{Policy: jobsched.Quota, QuotaSlots: -1}}, word: "jobsched"},
		{name: "negative weight", meta: jobsched.JobMeta{Weight: -1}, sentinel: minimr.ErrBadWeight, word: "weight"},
		{name: "NaN deadline", meta: jobsched.JobMeta{Deadline: math.NaN()}, sentinel: minimr.ErrBadDeadline, word: "deadline"},
		{name: "reducers without reduce slots", reducers: 2, word: `job "golden": 2 reduce tasks, but the cluster has no reduce slots`},

		{name: "zero heartbeat is 3 s", check: secondHeartbeatAt3},
		{name: "zero MaxSimTime is 1e7 s", f: runtime.Features{HeartbeatInterval: 1e6}, mapTime: 2e7, check: abortsAt1e7},
		{name: "NaN MaxSimTime is 1e7 s", f: runtime.Features{HeartbeatInterval: 1e6, MaxSimTime: math.NaN()}, mapTime: 2e7, check: abortsAt1e7},
		{name: "map-only job without reduce slots runs", check: mapsRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i, en := range entries {
				mapTime := tc.mapTime
				if mapTime == 0 {
					mapTime = goldenMapTime
				}
				events, err := en.run(t, sched.KindLF, tc.f, tc.meta, mapTime, tc.reducers)
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

// TestFeaturesDefaultSourceStrategy: a zero SourceStrategy is RandomK, the
// paper's random k of n−1, for every engine embedding Features.
func TestFeaturesDefaultSourceStrategy(t *testing.T) {
	var f runtime.Features
	if err := f.Validate(netsim.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	if f.SourceStrategy != dfs.RandomK {
		t.Errorf("SourceStrategy default = %v, want RandomK", f.SourceStrategy)
	}
}
