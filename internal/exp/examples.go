package exp

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"degradedfirst/internal/analysis"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Section III's worked examples (Figs. 3 and 4) and Section IV-B's
// closed-form model (Fig. 5).

func init() {
	register("fig3", "Motivating example: map-slot schedules of Figure 3",
		"LF map phase 40 s vs degraded-first 30 s — a 25% saving (Fig. 3)",
		runFig3)
	register("fig4", "BDF execution flow on the Figure 4 example",
		"degraded tasks are the 1st, 5th and 9th launches, at 0 s, 10 s and 30 s (Fig. 4)",
		runFig4)
	register("fig5a", "Analysis: normalized runtime vs erasure coding scheme",
		"DF beats LF by 15-32%; LF worsens with k, DF flat (Fig. 5a)",
		fig5("analysis vs coding scheme", "paper: reduction 15%-32%, growing with k",
			model("(8,6)", func(p *analysis.Params) { p.K = 6 }),
			model("(12,9)", func(p *analysis.Params) { p.K = 9 }),
			model("(16,12)", func(p *analysis.Params) { p.K = 12 }),
			model("(20,15)", func(p *analysis.Params) { p.K = 15 })))
	register("fig5b", "Analysis: normalized runtime vs number of blocks F",
		"normalized runtimes fall with F; DF saves 25-28% (Fig. 5b)",
		fig5("analysis vs number of blocks", "paper: reduction 25%-28%, normalized runtime decreasing in F",
			blocks(720), blocks(1440), blocks(2160), blocks(2880)))
	register("fig5c", "Analysis: normalized runtime vs rack download bandwidth W",
		"runtimes fall with W; DF flat past 500 Mbps; saves 18-43% (Fig. 5c)",
		fig5("analysis vs rack bandwidth", "paper: reduction 18%-43%; DF identical at 500 Mbps and 1 Gbps",
			model("100Mbps", func(p *analysis.Params) { p.W = 100 * netsim.Mbps }),
			model("250Mbps", func(p *analysis.Params) { p.W = 250 * netsim.Mbps }),
			model("500Mbps", func(p *analysis.Params) { p.W = 500 * netsim.Mbps }),
			model("1Gbps", func(p *analysis.Params) { p.W = 1000 * netsim.Mbps })))
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
func fig3Schedule(flows []fig3Flow, localEnd float64, sink trace.Sink, label string) float64 {
	// Figure 2's cluster: five nodes, racks of 3 and 2, 100 Mbps links.
	cluster := topology.MustNew(topology.Config{Nodes: 5, Racks: 2, MapSlotsPerNode: 2, RackSizes: []int{3, 2}})
	eng := sim.New()
	net := must(netsim.New(eng, cluster, netsim.Config{NodeBps: 100 * netsim.Mbps, RackBps: 100 * netsim.Mbps}))
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
	return end
}

func runFig3(_ context.Context, o Options) (*Table, error) {
	// Node IDs: the paper's Node 1..5 are 0..4; node 0 fails. Lost blocks
	// B00,B10,B20,B30 are reconstructed on nodes 1..4. Each reader holds
	// one source block locally and downloads the other:
	//   node1 <- P00 @ node3 (cross-rack)
	//   node2 <- P10 @ node4 (cross-rack)
	//   node3 <- P20 @ node2 (cross-rack)
	//   node4 <- P30 @ node3 (same rack)
	reads := func(at float64) []fig3Flow { return []fig3Flow{{at, 3, 1}, {at, 4, 2}, {at, 2, 3}, {at, 3, 4}} }
	// Locality-first: two rounds of local tasks end at 10 s, then all four
	// degraded reads start together.
	lfEnd := fig3Schedule(reads(10), 10, o.Trace, "fig3/lf")
	// Degraded-first (Fig. 3b): degraded reads for B00 (node1) and B20
	// (node3) start at 0 alongside the locals; the other two start at 10 s.
	dfFlows := []fig3Flow{{0, 3, 1}, {0, 2, 3}, {10, 4, 2}, {10, 3, 4}}
	dfEnd := fig3Schedule(dfFlows, 20, o.Trace, "fig3/df") // node1/node3 run locals until 20 s
	return &Table{
		Title:   "motivating example map-phase durations",
		Columns: []string{"schedule", "map phase end (s)", "paper (s)"},
		Rows: [][]string{
			{"locality-first (Fig. 3a)", f1(lfEnd), "40"},
			{"degraded-first (Fig. 3b)", f1(dfEnd), "30"},
			{"saving", pct(100 * (lfEnd - dfEnd) / lfEnd), "25%"},
		},
		Notes: []string{
			"transfers take 10.24 s (128 MB over 100 Mbps), so ends land slightly past the paper's idealized 10 s multiples",
		},
	}, nil
}

// fig4Placement builds Figure 4(a): four nodes, (4,2) code, six stripes.
// Node 0 (the paper's Node 1) holds B00,B10,B20; node 1 holds B30,B40,B50;
// node 2 holds B01,B11,B21; node 3 holds B31,B41,B51; parity fills the
// remaining two nodes of each stripe.
func fig4Placement() placement.Explicit {
	assign := make([][]topology.NodeID, 6)
	for i := range assign {
		assign[i] = []topology.NodeID{0, 2, 1, 3}
		if i >= 3 {
			assign[i] = []topology.NodeID{1, 3, 0, 2}
		}
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
	// Launch order: stable, so launches at one instant keep task order.
	recs := slices.Clone(res.Jobs[0].Tasks)
	slices.SortStableFunc(recs, func(a, b mapred.TaskRecord) int { return cmp.Compare(a.LaunchTime, b.LaunchTime) })
	t := &Table{
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

// A modelPoint is one labelled setting of the Section IV-B model.
type modelPoint struct {
	label string
	analysis.Params
}

// model returns the paper's default analysis setting, changed by set.
func model(label string, set func(*analysis.Params)) modelPoint {
	p := modelPoint{label, analysis.Default()}
	set(&p.Params)
	return p
}

func blocks(f int) modelPoint {
	return model(fmt.Sprintf("F=%d", f), func(p *analysis.Params) { p.F = f })
}

// fig5 declares a Fig. 5 table: the model's normalized LF and DF
// runtimes at each point, each validated first.
func fig5(title, note string, pts ...modelPoint) func(context.Context, Options) (*Table, error) {
	return func(context.Context, Options) (*Table, error) {
		for _, p := range pts {
			if err := p.Validate(); err != nil {
				return nil, err
			}
		}
		return tabulate(&Table{Title: title, Notes: []string{note}}, pts, []column[modelPoint]{
			{"setting", func(p modelPoint) string { return p.label }},
			{"LF norm", func(p modelPoint) string { return f3(p.NormalizedLF()) }},
			{"DF norm", func(p modelPoint) string { return f3(p.NormalizedDF()) }},
			{"DF vs LF", func(p modelPoint) string { return pct(p.ReductionPercent()) }},
		}), nil
	}
}
