package mapred

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// repairConfig is smallConfig with a mid-run failure and the healer on.
func repairConfig(fraction float64) Config {
	cfg := smallConfig()
	cfg.Seed = 91
	cfg.FailNodes = []topology.NodeID{4}
	cfg.FailAt = 20
	cfg.Scheduler = LF
	cfg.Repair = repair.Config{
		Enabled:      true,
		RateFraction: fraction,
	}
	return cfg
}

// TestRepairTracePinned pins the full JSONL trace of four repair-enabled
// runs as FNV-1a hashes (testdata/repair_trace_hashes.json): the healer at
// half the rack bandwidth, the same over the locally repairable
// LRC(4,2,1), two nodes lost mid-run at full bandwidth, and the fat tree
// at a quarter of the node bandwidth. Any change to which blocks the
// healer plans, reads, writes or hands back to a task moves them.
func TestRepairTracePinned(t *testing.T) {
	lrc := repairConfig(0.5)
	lrc.N, lrc.LocalGroups = 7, 2
	double := repairConfig(1.0)
	double.FailNodes = []topology.NodeID{4, 7}
	fatTree := fatTreeConfig(t)
	fatTree.Seed, fatTree.Scheduler = 91, LF
	fatTree.FailNodes, fatTree.FailAt = []topology.NodeID{4}, 20
	fatTree.Repair = repair.Config{Enabled: true, RateFraction: 0.25}
	got := map[string]string{}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"half", repairConfig(0.5)},
		{"local", lrc},
		{"double", double},
		{"fat-tree", fatTree},
	} {
		h := fnv.New64a()
		sink := trace.NewJSONL(h)
		tc.cfg.Trace = sink
		res := mustRun(t, tc.cfg, smallJob())
		if res.Repair == nil || res.Repair.BlocksRepaired == 0 {
			t.Fatalf("%s: no blocks repaired", tc.name)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got[tc.name] = fmt.Sprintf("%#016x", h.Sum64())
	}
	checkPins(t, "repair_trace_hashes.json", got)
}

func TestRepairDisabledLeavesResultUntouched(t *testing.T) {
	cfg := repairConfig(0.5)
	cfg.Repair = repair.Config{}
	res := mustRun(t, cfg, smallJob())
	if res.Repair != nil {
		t.Fatalf("repair disabled but Result.Repair = %+v", res.Repair)
	}
}

func TestRepairHealsToFullRedundancy(t *testing.T) {
	res := mustRun(t, repairConfig(0.5), smallJob())
	st := res.Repair
	if st == nil {
		t.Fatal("repair enabled with failures but Result.Repair is nil")
	}
	if st.StripesQueued == 0 || st.BlocksRepaired == 0 {
		t.Fatalf("no repair activity: %+v", st)
	}
	if st.Unrepairable != 0 {
		t.Fatalf("single-node failure produced unrepairable stripes: %+v", st)
	}
	if st.FirstRepairAt < 20 {
		t.Fatalf("first repair at %.2f, before the failure at 20", st.FirstRepairAt)
	}
	if st.FullRedundancyAt < st.FirstRepairAt {
		t.Fatalf("FullRedundancyAt %.2f < FirstRepairAt %.2f", st.FullRedundancyAt, st.FirstRepairAt)
	}
	if st.RepairBytes <= 0 {
		t.Fatalf("RepairBytes = %v", st.RepairBytes)
	}
	// Repair reads travel the shared network, so they are part of the
	// run's total moved volume.
	if res.BytesMoved < st.RepairBytes {
		t.Fatalf("BytesMoved %.0f < RepairBytes %.0f", res.BytesMoved, st.RepairBytes)
	}
}

func TestRepairDeterministic(t *testing.T) {
	a := mustRun(t, repairConfig(0.5), smallJob())
	b := mustRun(t, repairConfig(0.5), smallJob())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repair-enabled runs must be deterministic")
	}
}

func TestRepairThrottleMonotone(t *testing.T) {
	// More repair bandwidth must shorten time to full redundancy, on the
	// two-level tree (throttle against RackBps) and on a fat tree, where
	// the only capacities are the spec's (throttle against its NodeBps).
	fatTree := func(fraction float64) Config {
		cfg := fatTreeConfig(t)
		cfg.Seed, cfg.Scheduler = 91, LF
		cfg.FailNodes, cfg.FailAt = []topology.NodeID{4}, 20
		cfg.Repair = repair.Config{Enabled: true, RateFraction: fraction}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  func(float64) Config
		slow float64
	}{
		{"two-level", repairConfig, 0.05},
		{"fat-tree", fatTree, 0.25},
	} {
		slow := mustRun(t, tc.cfg(tc.slow), smallJob())
		fast := mustRun(t, tc.cfg(1.0), smallJob())
		if slow.Repair == nil || fast.Repair == nil {
			t.Fatalf("%s: missing repair stats", tc.name)
		}
		if fast.Repair.FullRedundancyAt >= slow.Repair.FullRedundancyAt {
			t.Errorf("%s: full redundancy at %.2f with full bandwidth vs %.2f at fraction %v",
				tc.name, fast.Repair.FullRedundancyAt, slow.Repair.FullRedundancyAt, tc.slow)
		}
	}
}

func TestRepairModeledLocalRepairsMoveFewerBytes(t *testing.T) {
	// LRC(4,2,1) repairs a lost data block or local parity from its
	// 2-block local group, so the healer reads strictly less than over
	// Reed-Solomon of the same width, RS(7,4), which always reads k = 4.
	rs := repairConfig(0.5)
	rs.N = 7
	full := mustRun(t, rs, smallJob())
	lrc := rs
	lrc.LocalGroups = 2
	local := mustRun(t, lrc, smallJob())
	if full.Repair.LocalRepairs != 0 || full.Repair.GlobalRepairs == 0 {
		t.Fatalf("k-source run misclassified: %+v", full.Repair)
	}
	if local.Repair.LocalRepairs == 0 || local.Repair.LocalRepairs < local.Repair.GlobalRepairs {
		t.Fatalf("single-node losses should mostly repair locally: %+v", local.Repair)
	}
	if local.Repair.BlocksRepaired != full.Repair.BlocksRepaired {
		t.Fatalf("repaired %d blocks locally vs %d globally",
			local.Repair.BlocksRepaired, full.Repair.BlocksRepaired)
	}
	if local.Repair.RepairBytes >= full.Repair.RepairBytes {
		t.Fatalf("local repair bytes %.0f not below full reconstruction bytes %.0f",
			local.Repair.RepairBytes, full.Repair.RepairBytes)
	}
}

func TestRepairRestoresPendingDegradedTasks(t *testing.T) {
	// With an aggressive healer the scheduler should see no more degraded
	// launches than without one: blocks repaired before their task runs
	// revert to normal reads.
	cfg := repairConfig(1.0)
	without := cfg
	without.Repair = repair.Config{}
	healed := mustRun(t, cfg, smallJob())
	bare := mustRun(t, without, smallJob())
	h := healed.Jobs[0].CountByClass()[sched.ClassDegraded]
	b := bare.Jobs[0].CountByClass()[sched.ClassDegraded]
	if h > b {
		t.Fatalf("healer increased degraded launches: %d with repair vs %d without", h, b)
	}
	if healed.Repair.BlocksRepaired == 0 {
		t.Fatal("no blocks repaired")
	}
}
