package netsim

// Tests of the drain test in incRecompute: when it is taken, what it
// costs, and that a verdict it cannot prove goes to progressive filling.

import (
	"fmt"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// TestDrainTakenOnShuffleShapedWorlds runs a map's shuffle — equal flows
// leaving one node together for every node, its own included — through
// the whole equivalence check on each fluid world, and requires that the
// finish cascades were in fact answered by the drain test there.
func TestDrainTakenOnShuffleShapedWorlds(t *testing.T) {
	var ops []scenarioOp
	for m := 0; m < 6; m++ {
		batch := make([]flowSpec, 12)
		for r := range batch {
			batch[r] = flowSpec{src: topology.NodeID(5 * m % 12), dst: topology.NodeID(r), bytes: 5e6}
		}
		ops = append(ops, scenarioOp{at: float64(m/2) * 0.35, batch: batch})
	}
	for _, sel := range []byte{0, 1, 2, 4} {
		cluster, cfg := equivWorld(sel)
		inc := checkScenario(t, ops, cluster, cfg)
		if inc.stats.Deferred == 0 {
			t.Errorf("world %d: no solve of %d was deferred", sel, inc.stats.Solves)
		}
	}
}

// TestFinishCascadeCostsOneFilling: N equal flows from one node over one
// finite link are due at one instant, and their N completions cost N-1
// deferred solves and one filling — the last, which finds the net empty.
func TestFinishCascadeCostsOneFilling(t *testing.T) {
	const flows = 60
	eng := sim.New()
	n := mustNet(t, eng, equivCluster(), Config{CoreBps: 100 * Mbps})
	reqs := make([]FlowReq, flows)
	var finishes []sim.Time
	for i := range reqs {
		reqs[i] = FlowReq{Src: 0, Dst: topology.NodeID(4 + i%8), Bytes: 2.5e6, Done: func(*Flow) { finishes = append(finishes, eng.Now()) }}
	}
	n.StartFlows(reqs)
	if got, want := n.Stats(), (Stats{Solves: 1, FlowsVisited: flows, Iterations: 1, LinkVisits: 1}); got != want {
		t.Fatalf("after admission: %+v, want %+v", got, want)
	}
	eng.Run()
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Stats(), (Stats{Solves: 1 + flows, FlowsVisited: flows + flows*(flows-1)/2, Deferred: flows - 1, Iterations: 1, LinkVisits: 1}); got != want {
		t.Errorf("after the cascade: %+v, want %+v", got, want)
	}
	if len(finishes) != flows || finishes[0] != finishes[flows-1] || finishes[0] <= 0 {
		t.Errorf("flows finished at %v, want one instant", finishes)
	}
}

// TestFinishCascadeBehindLongFlows is the cascade above behind 1 000
// long-lived flows admitted ahead of it: they sit in front of every drain
// walk of the instant, which proves them due later once and resumes past
// them, and the cascade still costs 59 deferred solves and one filling.
func TestFinishCascadeBehindLongFlows(t *testing.T) {
	const long, flows = 1000, 60
	eng := sim.New()
	// The long flows run between nodes 1-3, whose NICs give each of them
	// more than the core gives a cascade flow, so the core sets every
	// bound of the cascade as it does without them.
	n := mustNet(t, eng, equivCluster(), Config{CoreBps: 100 * Mbps, NodeBps: Gbps})
	reqs := make([]FlowReq, 0, long+flows)
	for i := 0; i < long; i++ {
		reqs = append(reqs, FlowReq{Src: topology.NodeID(1 + i%3), Dst: topology.NodeID(1 + (i+1)%3), Bytes: 1e9})
	}
	var finishes []sim.Time
	for i := 0; i < flows; i++ {
		reqs = append(reqs, FlowReq{Src: 0, Dst: topology.NodeID(4 + i%8), Bytes: 2.5e6, Done: func(*Flow) { finishes = append(finishes, eng.Now()) }})
	}
	n.StartFlows(reqs)
	eng.RunUntil(100) // the cascade lands at 12 s, the long flows run for an hour
	visited := uint64(long+flows) + flows*(long+flows) - flows*(flows+1)/2
	if got, want := n.Stats(), (Stats{Solves: 1 + flows, FlowsVisited: visited, Deferred: flows - 1, Iterations: 5, LinkVisits: 36}); got != want {
		t.Errorf("after the cascade: %+v, want %+v", got, want)
	}
	if len(finishes) != flows || finishes[0] != finishes[flows-1] {
		t.Errorf("flows finished at %v, want %d at one instant", finishes, flows)
	}
	if len(n.flows) != long {
		t.Errorf("%d flows still active, want the %d long ones", len(n.flows), long)
	}
}

// TestDrainCursorResetsWhenHiGrows: a flow proved due later under one hi
// may not be provable under a larger one, and the parent's drain test,
// which walked from the first flow every time, then fell through to the
// filling. The cursor must restart so the verdicts, and Stats, stay those.
func TestDrainCursorResetsWhenHiGrows(t *testing.T) {
	const now = 4.0
	eng := sim.New()
	// NICs are 12.5 MB/s and racks 50 MB/s, so hi is 25 MB/s while only
	// intra-rack flows are active and 100 MB/s once a cross-rack one is.
	n := mustNet(t, eng, equivCluster(), Config{NodeBps: 100 * Mbps, RackBps: 400 * Mbps})
	tiny := 2e-8 // due later under hi 25 MB/s, undecided under 100 MB/s
	if at := sim.Time(now); at+tiny/(2*12.5e6) <= at || at+tiny/(2*50e6) > at {
		t.Fatalf("tiny is not borderline between the two values of hi")
	}
	var got Stats
	eng.ScheduleAt(now, func() {
		startFlow(n, 0, 1, tiny, nil)   // proved later; the cursor passes it
		startFlow(n, 0, 2, 0, nil)      // due now, no solve of its own
		startFlow(n, 2, 5, 12.5e6, nil) // cross-rack: hi grows, the tiny flow is undecided
		got = n.Stats()
	})
	eng.Run()
	if want := (Stats{Solves: 2, FlowsVisited: 1 + 3, Iterations: 3, LinkVisits: 13}); got != want {
		t.Errorf("after the admissions: %+v, want %+v (a drained second solve skipped the undecided flow)", got, want)
	}
}

// TestBorderlineRemainingFallsThrough puts a flow the drain test can
// place neither at this instant nor after it ahead of a zero-byte flow.
// Only progressive filling can tell which of the two the engine must
// dispatch first — the flow behind when the solved rate leaves the first a
// rounding step short, the flow ahead when it does not — and either way
// the run must match the reference.
func TestBorderlineRemainingFallsThrough(t *testing.T) {
	const now = 4.0
	const rack = 100 * Mbps
	// Racks are nodes 0-3, 4-7 and 8-11. In "due now" three flows share the
	// tiny flow's uplink but are held to a twelfth of rack 2's downlink, so
	// the tiny flow is solved four and a half times the smallest share.
	crowd := []flowSpec{{1, 8, 12.5e6}, {2, 9, 12.5e6}, {3, 10, 12.5e6}}
	for i := 0; i < 9; i++ {
		crowd = append(crowd, flowSpec{topology.NodeID(5 + i%3), topology.NodeID(8 + i%4), 12.5e6})
	}
	for _, tc := range []struct {
		name   string
		tiny   float64
		others []flowSpec
		lo     float64 // the smallest equal share of any link
		want   string  // the first two completions
	}{
		{"due later", 5e-9, []flowSpec{{2, 4, 12.5e6}, {0, 5, 12.5e6}}, rack / 4, "[f1@4010000000000000 f0@4010000000000001]"},
		{"due now", 1e-9, crowd, rack / 12, "[f0@4010000000000000 f1@4010000000000000]"},
	} {
		if hi := 2.0 * rack; now+tc.tiny/tc.lo == now || now+tc.tiny/hi > now {
			t.Fatalf("%s: not borderline: due %x..%x from %x", tc.name, now+tc.tiny/hi, now+tc.tiny/tc.lo, now)
		}
		batch := append([]flowSpec{{0, 4, tc.tiny}, {1, 5, 0}}, tc.others...)
		inc := checkScenario(t, []scenarioOp{{at: now, batch: batch}}, equivCluster(), Config{RackBps: rack})
		if got := fmt.Sprint(inc.order[:2]); got != tc.want {
			t.Errorf("%s: first two completions %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkFinishCascade is the shuffle's shape at the solver: 200 maps,
// each sending 60 equal flows from its node at one instant, a few maps'
// worth in flight at a time, so nearly every solve is one of a cascade of
// same-instant completions. It runs on a sim-scale-like two-level tree
// with finite rack links, on that tree behind 1 000 long-lived flows
// admitted first (which every drain walk of an instant meets first), and on
// sim-storm's fat tree, and reports the share of solves the drain test
// answered. The hedged case is sim-storm's degraded reads instead: 200
// fan-ins of k+1 = 5 block reads into one node, the spare cancelled once k
// have arrived, so consecutive fillings differ by a flow or two; it also
// reports the share of filling iterations taken from the record.
func BenchmarkFinishCascade(b *testing.B) {
	const batches, fanout, k = 200, 60, 4
	storm, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 4, EdgesPerPod: 4, NodesPerEdge: 4,
		NodeBps: Gbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	fatTree, err := topology.New(topology.Config{Spec: &storm, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	twoLevel := topology.MustNew(topology.Config{Nodes: 200, Racks: 20, MapSlotsPerNode: 2})
	for _, tc := range []struct {
		name    string
		cluster *topology.Cluster
		cfg     Config
		long    int  // cross-rack flows of 1 GB admitted before the batches
		hedged  bool // k+1 fan-ins of 64 MB with the spare cancelled, not 60 fan-outs of 1 MB
	}{
		{"two-level", twoLevel, Config{RackBps: Gbps}, 0, false},
		{"two-level-behind-1000", twoLevel, Config{RackBps: Gbps}, 1000, false},
		{"fat-tree", fatTree, Config{}, 0, false},
		{"hedged-fat-tree", fatTree, Config{}, 0, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			nodes := tc.cluster.NumNodes()
			var st Stats
			b.ReportAllocs()
			for iter := 0; iter < b.N; iter++ {
				eng := sim.New()
				n, err := New(eng, tc.cluster, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				long := make([]FlowReq, tc.long)
				for i := range long {
					long[i] = FlowReq{Src: topology.NodeID(i % nodes), Dst: topology.NodeID((i + nodes/2) % nodes), Bytes: 1e9}
				}
				eng.ScheduleAt(0, func() { n.StartFlows(long) })
				for m := 0; m < batches; m++ {
					if tc.hedged {
						var flows []*Flow
						arrived := 0
						spare := func(*Flow) {
							if arrived++; arrived == k {
								for _, f := range flows {
									n.Cancel(f) // the arrived ones: no-op
								}
							}
						}
						reqs := make([]FlowReq, k+1)
						for r := range reqs {
							reqs[r] = FlowReq{Src: topology.NodeID((7*m + 1 + 13*r) % nodes), Dst: topology.NodeID(7 * m % nodes), Bytes: 64e6, Done: spare}
						}
						eng.ScheduleAt(0.1*float64(m), func() { flows = n.StartFlows(reqs) })
						continue
					}
					reqs := make([]FlowReq, fanout)
					for r := range reqs {
						reqs[r] = FlowReq{Src: topology.NodeID(7 * m % nodes), Dst: topology.NodeID((7*m + 1 + r) % nodes), Bytes: 1e6}
					}
					eng.ScheduleAt(0.1*float64(m), func() { n.StartFlows(reqs) })
				}
				eng.Run()
				if err := n.Drained(); err != nil {
					b.Fatal(err)
				}
				st = n.Stats()
			}
			b.ReportMetric(float64(st.Deferred)/float64(st.Solves), "deferred/solve")
			b.ReportMetric(float64(st.Replayed)/float64(st.Replayed+st.Iterations), "replayed/iter")
		})
	}
}
