package exp

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Motivating example: map-slot schedules of Figure 3",
		Paper: "LF map phase 40 s vs degraded-first 30 s — a 25% saving (Fig. 3)",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "BDF execution flow on the Figure 4 example",
		Paper: "degraded tasks are the 1st, 5th and 9th launches, at 0 s, 10 s and 30 s (Fig. 4)",
		Run:   runFig4,
	})
}

// fig3Flow is one degraded-read transfer in the scripted schedules.
type fig3Flow struct {
	at       float64
	src, dst topology.NodeID
}

// fig3Schedule replays one of Figure 3's schedules through the network
// model: locals process for T with no traffic; each degraded task issues
// its cross/intra-rack download at the scripted time and processes for T
// after the download completes. Returns the map-phase end time. A non-nil
// sink receives the schedule's flow lifecycle as transfer events, each
// with run label label.
func fig3Schedule(flows []fig3Flow, localEnd float64, sink trace.Sink, label string) (float64, error) {
	// Figure 2's cluster: five nodes, racks of 3 and 2, 100 Mbps links.
	cluster, err := topology.New(topology.Config{
		Nodes: 5, Racks: 2, MapSlotsPerNode: 2, RackSizes: []int{3, 2},
	})
	if err != nil {
		return 0, err
	}
	eng := sim.New()
	net, err := netsim.New(eng, cluster, netsim.Config{
		NodeBps: 100 * netsim.Mbps,
		RackBps: 100 * netsim.Mbps,
	})
	if err != nil {
		return 0, err
	}
	if sink != nil {
		flowEvent := func(typ trace.Type) func(*netsim.Flow) {
			return func(f *netsim.Flow) {
				e := trace.New(eng.Now(), typ)
				e.Run, e.Src, e.Dst, e.Bytes, e.N = label, int(f.Src), int(f.Dst), f.Bytes, f.ID
				sink.Emit(e)
			}
		}
		net.SetHooks(netsim.Hooks{
			Start:  flowEvent(trace.EvTransferStart),
			Finish: flowEvent(trace.EvTransferEnd),
			Cancel: flowEvent(trace.EvTransferCancel),
		})
	}
	const (
		blockBytes = 128e6
		taskTime   = 10.0
	)
	end := localEnd
	for _, f := range flows {
		f := f
		eng.Schedule(f.at, func() {
			net.StartFlows([]netsim.FlowReq{{Src: f.src, Dst: f.dst, Bytes: blockBytes, Done: func(*netsim.Flow) {
				done := eng.Now() + taskTime
				if done > end {
					end = done
				}
			}}})
		})
	}
	eng.Run()
	return end, nil
}

func runFig3(_ context.Context, o Options) (*Table, error) {
	// Node IDs: the paper's Node 1..5 are 0..4; node 0 fails. Lost blocks
	// B00,B10,B20,B30 are reconstructed on nodes 1..4. Each reader holds
	// one source block locally and downloads the other:
	//   node1 <- P00 @ node3 (cross-rack)
	//   node2 <- P10 @ node4 (cross-rack)
	//   node3 <- P20 @ node2 (cross-rack)
	//   node4 <- P30 @ node3 (same rack)
	reads := func(at float64) []fig3Flow {
		return []fig3Flow{
			{at, 3, 1}, {at, 4, 2}, {at, 2, 3}, {at, 3, 4},
		}
	}
	// Locality-first: two rounds of local tasks end at 10 s, then all four
	// degraded reads start together.
	lfEnd, err := fig3Schedule(reads(10), 10, o.Trace, "fig3/lf")
	if err != nil {
		return nil, err
	}
	// Degraded-first (Fig. 3b): degraded reads for B00 (node1) and B20
	// (node3) start at 0 alongside the locals; the other two start at 10 s.
	dfFlows := []fig3Flow{
		{0, 3, 1}, {0, 2, 3},
		{10, 4, 2}, {10, 3, 4},
	}
	dfEnd, err := fig3Schedule(dfFlows, 20, o.Trace, "fig3/df") // node1/node3 run locals until 20 s
	if err != nil {
		return nil, err
	}
	saving := 100 * (lfEnd - dfEnd) / lfEnd
	t := &Table{
		ID:      "fig3",
		Title:   "motivating example map-phase durations",
		Columns: []string{"schedule", "map phase end (s)", "paper (s)"},
		Rows: [][]string{
			{"locality-first (Fig. 3a)", f1(lfEnd), "40"},
			{"degraded-first (Fig. 3b)", f1(dfEnd), "30"},
			{"saving", pct(saving), "25%"},
		},
		Notes: []string{
			"transfers take 10.24 s (128 MB over 100 Mbps), so ends land slightly past the paper's idealized 10 s multiples",
		},
	}
	return t, nil
}

// fig4Placement builds Figure 4(a): four nodes, (4,2) code, six stripes.
// Node 0 (the paper's Node 1) holds B00,B10,B20; node 1 holds B30,B40,B50;
// node 2 holds B01,B11,B21; node 3 holds B31,B41,B51; parity fills the
// remaining two nodes of each stripe.
func fig4Placement() placement.Explicit {
	assign := make([][]topology.NodeID, 6)
	for i := 0; i < 6; i++ {
		var b0, b1, p0, p1 topology.NodeID
		if i < 3 {
			b0, b1, p0, p1 = 0, 2, 1, 3
		} else {
			b0, b1, p0, p1 = 1, 3, 0, 2
		}
		assign[i] = []topology.NodeID{b0, b1, p0, p1}
	}
	return placement.Explicit{Assignments: assign}
}

func runFig4(ctx context.Context, o Options) (*Table, error) {
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
	cfg.Policy = fig4Placement()
	cfg.Scheduler = mapred.BDF
	cfg.FailNodes = []topology.NodeID{0}
	cfg.HeartbeatInterval = 0.25
	cfg.OutOfBandHeartbeats = true
	cfg.SourceStrategy = dfs.PreferSameRack // readers hold one source locally
	job := mapred.JobSpec{
		Name:    "fig4",
		MapTime: mapred.Dist{Mean: 10, Std: 0},
	}
	cfg.Trace = o.Trace
	cfg.TraceLabel = "fig4"
	res, err := mapred.RunContext(ctx, cfg, []mapred.JobSpec{job})
	if err != nil {
		return nil, err
	}
	return fig4Table(res)
}

func fig4Table(res *mapred.Result) (*Table, error) {
	recs := append([]mapred.TaskRecord(nil), res.Jobs[0].Tasks...)
	// Sort by launch time (stable: record order is task index).
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].LaunchTime < recs[j-1].LaunchTime; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	t := &Table{
		ID:      "fig4",
		Title:   "BDF launch order on the Figure 4 example",
		Columns: []string{"launch #", "class", "launch time (s)", "node"},
		Notes: []string{
			"paper: degraded launches are #1, #5, #9 at 0 s, 10 s, 30 s",
		},
	}
	for i, r := range recs {
		if r.Class != sched.ClassDegraded {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("#%d", i+1),
			r.Class.String(),
			f1(r.LaunchTime),
			fmt.Sprintf("node%d", r.Node),
		})
	}
	t.Rows = append(t.Rows, []string{"map phase end", "", f1(res.Jobs[0].MapPhaseEnd), ""})
	return t, nil
}
