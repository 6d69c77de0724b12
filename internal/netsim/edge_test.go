package netsim

import (
	"math"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// TestUnlimitedPathsFinishAtOnce: a node-local transfer and one whose
// path crosses only unlimited links (NICs are unlimited here) finish at
// the instant they start, also when a flow the drain test cannot place
// (TestBorderlineRemainingFallsThrough's "due later") sends the batch
// through progressive filling, which gives the unlimited flow rate +Inf.
func TestUnlimitedPathsFinishAtOnce(t *testing.T) {
	const now, rack = 4.0, 100 * Mbps
	eng := sim.New()
	n := mustNet(t, eng, equivCluster(), Config{RackBps: rack})
	finished := map[int]float64{}
	var intraRate float64
	done := func(f *Flow) {
		finished[f.ID] = eng.Now()
		if f.ID == 3 {
			intraRate = f.rate
		}
	}
	eng.Schedule(now, func() {
		n.StartFlows([]FlowReq{
			{Src: 0, Dst: 4, Bytes: 5e-9, Done: done}, // borderline
			{Src: 2, Dst: 4, Bytes: 12.5e6, Done: done},
			{Src: 0, Dst: 5, Bytes: 12.5e6, Done: done},
			{Src: 1, Dst: 2, Bytes: 1e6, Done: done}, // rack 0's NICs only
			{Src: 3, Dst: 3, Bytes: 1e6, Done: done}, // node-local
		})
	})
	eng.Run()
	if !math.IsInf(intraRate, 1) {
		t.Fatalf("intra-rack flow over unlimited NICs got rate %v, want +Inf", intraRate)
	}
	for _, id := range []int{3, 4} {
		if got, ok := finished[id]; !ok || got != now {
			t.Errorf("flow %d finished at %v (%v), want %v", id, got, ok, now)
		}
	}
	if len(finished) != 5 {
		t.Errorf("%d of 5 flows finished", len(finished))
	}
}

// TestStarvedFlowGetsNoCompletion (white-box): a flow whose solve leaves
// it rate 0 schedules no completion, so the clock never moves and the
// flow is still there when the engine runs dry.
func TestStarvedFlowGetsNoCompletion(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	n.tierUp[0][0].capacity = 0
	f := startFlow(n, 0, 3, 12.5e6, func(*Flow) { t.Error("a starved flow completed") })
	if f.rate != 0 {
		t.Fatalf("flow rate %v, want 0", f.rate)
	}
	if end := eng.Run(); end != 0 {
		t.Fatalf("the engine ran to %v, want no event past 0", end)
	}
	if n.Drained() == nil {
		t.Fatal("Drained missed the starved flow")
	}
}

// TestDeepPathIndexes: a path longer than a flow's inline position buffer
// (four tiers and the core: eleven links) is indexed on the heap and
// shares its links like any other.
func TestDeepPathIndexes(t *testing.T) {
	c := topology.MustNew(topology.Config{Spec: &topology.Spec{Nodes: 16, Tiers: []topology.Tier{
		{Name: "rack", Count: 8}, {Name: "edge", Count: 4}, {Name: "pod", Count: 2}, {Name: "zone", Count: 2, LinkBps: 10 * Mbps},
	}}, MapSlotsPerNode: 1})
	eng := sim.New()
	n := mustNet(t, eng, c, Config{})
	var at []float64
	done := func(*Flow) { at = append(at, eng.Now()) }
	flows := n.StartFlows([]FlowReq{{Src: 0, Dst: 15, Bytes: 1.25e6, Done: done}, {Src: 1, Dst: 14, Bytes: 1.25e6, Done: done}})
	if l := len(flows[0].path); l <= len(flows[0].linkPosBuf) {
		t.Fatalf("path of %d links fits the inline buffer: scenario is vacuous", l)
	}
	eng.Run()
	// Two flows share the zone up-link at 10 Mbit/s: 1.25 MB each takes 2 s.
	if len(at) != 2 || math.Abs(at[0]-2) > 1e-9 || math.Abs(at[1]-2) > 1e-9 {
		t.Fatalf("flows finished at %v, want both at 2 s", at)
	}
}
