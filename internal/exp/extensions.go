package exp

import (
	"context"
	"fmt"
	"slices"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"
)

// Extensions beyond the paper that load other layers: hedged degraded
// reads and a background healer on a small contended cluster, and a
// multi-tenant storm of small jobs under each job-level policy.

func init() {
	register("hedge", "Degraded-read tail latency under hedged fan-ins (k+Δ races, deadline hedging)",
		"extension beyond the paper: the paper's degraded reads wait for all k sources; this table quantifies redundant-request fan-ins — fetch k+Δ and keep the first k, or hedge a flow past a latency-quantile deadline — trading extra network volume for tail latency",
		sweep{
			caption: func(p point, seeds int) string {
				return fmt.Sprintf("hedged degraded reads: %d nodes, (%d,%d) code, %d blocks, %d seeds",
					p.Nodes, p.N, p.K, p.NumBlocks, seeds)
			},
			notes: []string{
				"read pXX = percentiles of per-task degraded-read durations (launch to k-th source block), pooled across seeds",
				"flow pXX = percentiles of per-source-flow fan-in latencies (hedged runs only; '-' when unhedged)",
				"extra = wasted bytes (redundant flows cancelled after the k-th arrival) over useful bytes moved",
				"delta=D races k+D eager sources; hedge-p90 launches a standby when a flow outlives the p90 of observed latencies",
				"hold: spares skip the queue at the busiest source NIC and queued losers move no bytes, so the tail shrinks for free; fluid: every extra flow dilutes the reader's fair share, so hedging trades latency and wasted volume",
			},
			seeds:  [2]int{10, 3},
			points: hedgePoints,
			trace: func(label string, c mapred.Config) string {
				return fmt.Sprintf("%v/%s/seed%d", c.NetMode, label, c.Seed)
			},
			cols: []column[row]{
				{"net", func(r row) string { return r.NetMode.String() }},
				labelCol("policy"),
				{"degraded", func(r row) string { return fmt.Sprintf("%d", len(r.pool(readTimes))) }},
				poolCol("read p50", 0.5, f1, readTimes),
				poolCol("read p90", 0.9, f1, readTimes),
				poolCol("read p99", 0.99, f1, readTimes),
				poolCol("flow p50", 0.5, f1, (*runtime.JobResult).DegradedFlowLatencies),
				poolCol("flow p99", 0.99, f1, (*runtime.JobResult).DegradedFlowLatencies),
				{"moved GB", func(r row) string { return f2(r.mean(bytesMoved) / 1e9) }},
				{"wasted GB", func(r row) string { return f2(r.mean(wastedBytes) / 1e9) }},
				// Every hedge point has degraded reads, so bytes move.
				{"extra", func(r row) string { return pct(r.total(wastedBytes) / r.total(bytesMoved) * 100) }},
				{"makespan", func(r row) string { return f1(r.mean(makespan)) }},
			},
		}.run)
	register("repair", "Background repair vs foreground MapReduce: throttle sweep under a mid-run failure",
		"extension beyond the paper: the paper leaves lost blocks degraded for the whole run; this table adds a proactive healer that rebuilds them through the same network the job uses, sweeping the repair-bandwidth throttle against all three schedulers — more repair bandwidth heals sooner but competes with the foreground job, while healed blocks de-degrade queued map tasks",
		sweep{
			caption: func(p point, seeds int) string {
				return fmt.Sprintf("background repair under a t=%.0fs failure: %d nodes, (%d,%d) code, %d blocks, %d seeds",
					p.FailAt, p.Nodes, p.N, p.K, p.NumBlocks, seeds)
			},
			notes: []string{
				"repair = healer rate cap as a fraction of one NIC's bandwidth (off = no healer, the paper's assumption)",
				"first fix / healed at = seconds from the failure to the first committed block and to full redundancy, averaged over seeds",
				"degraded = map tasks launched as degraded reads; a block the healer rebuilds before its task launches is read normally",
				"higher repair bandwidth heals sooner but competes with foreground reads on the same links",
			},
			seeds:  [2]int{10, 3},
			points: repairPoints,
			trace: func(label string, c mapred.Config) string {
				return fmt.Sprintf("%s/repair-%s/seed%d", c.Scheduler, label, c.Seed)
			},
			cols: []column[row]{
				{"sched", func(r row) string { return r.Scheduler.String() }},
				labelCol("repair"),
				{"makespan", func(r row) string { return f1(r.mean(makespan)) }},
				{"degraded", func(r row) string { return f1(float64(len(r.pool(readTimes))) / float64(len(r.runs))) }},
				healer("first fix", healedMean(func(st *runtime.RepairStats) float64 { return st.FirstRepairAt })),
				healer("healed at", healedMean(func(st *runtime.RepairStats) float64 { return st.FullRedundancyAt })),
				healer("repaired", func(r row) string {
					return fmt.Sprintf("%.0f", r.total(func(res *runtime.Result) float64 { return float64(healerStats(res).BlocksRepaired) }))
				}),
				healer("read GB", func(r row) string {
					return f2(r.mean(func(res *runtime.Result) float64 { return healerStats(res).RepairBytes / 1e9 }))
				}),
			},
		}.run)
	storm := sweep{
		caption: func(p point, _ int) string {
			return fmt.Sprintf("job storm: %d jobs, 3 tenants, 8 nodes", len(p.Jobs))
		},
		notes: []string{
			"wait = queueing delay from submission to first map-slot grant, rebuilt from job-queued/job-grant trace pairs",
			"tenants: alpha weight 4 share 0.5, beta weight 2 share 0.3, gamma weight 1 share 0.2; quota policy caps 4 concurrent slots per tenant",
		},
		points: stormPoints,
		split:  perTenant,
		trace:  func(label string, _ mapred.Config) string { return label },
		cols: []column[row]{
			labelCol("policy"),
			nameCol("tenant"),
			{"jobs", func(r row) string { return fmt.Sprintf("%d", len(r.pool(queueDelay))) }},
			poolCol("wait p50", 0.5, f2, queueDelay),
			poolCol("wait p90", 0.9, f2, queueDelay),
			poolCol("wait p99", 0.99, f2, queueDelay),
			poolCol("run p50", 0.5, f1, runtimes),
			poolCol("run p90", 0.9, f1, runtimes),
			{"makespan", func(r row) string {
				if r.tenant != "" {
					return ""
				}
				return f1(r.mean(makespan))
			}},
		},
	}
	register("jobsched", "Multi-tenant job storm across job-level scheduling policies",
		"extension beyond the paper: the paper fixes FIFO job order (Fig. 7f); this table stresses the pluggable job-level layer with per-tenant queueing-delay percentiles",
		func(ctx context.Context, o Options) (*Table, error) {
			// An unknown policy is an error here, before stormPoints sees it.
			if _, err := jobsched.ParseKind(o.JobSched); err != nil {
				return nil, err
			}
			return storm.run(ctx, o)
		})
}

// contended is the cluster both tables run on: 12 nodes whose 40 MB/s
// NICs are the bottleneck, node 0 failed, and a map-only job, so the
// tables isolate the read path. Under -quick it holds half the blocks.
func contended(o Options, label string, racks, slots, n, k int, mapMean float64) point {
	p := point{label: label, seed: 1, Scenario: scenario.Paper()}
	p.Nodes, p.Racks, p.MapSlotsPerNode, p.N, p.K = 12, racks, slots, n, k
	p.NumBlocks, p.BlockSizeBytes, p.NodeBps = 240, 64e6, 5*netsim.Mbps*64
	if o.Quick {
		p.NumBlocks = 120
	}
	p.FailNodes = []topology.NodeID{0}
	p.Jobs[0].MapTime = mapred.Dist{Mean: mapMean, Std: mapMean / 10}
	p.Jobs[0].NumReduceTasks = 0
	return p
}

// hedgePoints sweeps the hedge policies — the unhedged baseline, eager
// k+Δ races, and deadline hedging at the p90 of observed per-flow
// latencies — under both contention models. Under ExclusiveHold the
// fan-in tail is queueing delay at the busiest source NIC, which a spare
// skips for free (a queued loser has moved no bytes): hedging strictly
// improves the tail. Under FluidFairSharing every extra flow dilutes the
// reader's own NIC share, so the same policies pay a latency and
// wasted-volume price.
//
// One map slot per node keeps the reader NIC from saturating itself, and
// locality-first scheduling defers degraded tasks to the end of the map
// phase, where their fan-ins pile onto the surviving sources at once.
func hedgePoints(o Options) []point {
	policies := []struct {
		name   string
		policy runtime.HedgePolicy
	}{
		{"delta=0", runtime.HedgePolicy{}},
		{"delta=1", runtime.HedgePolicy{Extra: 1}},
		{"delta=2", runtime.HedgePolicy{Extra: 2}},
		{"hedge-p90", runtime.HedgePolicy{HedgeQuantile: 0.9}},
		{"delta=1+p90", runtime.HedgePolicy{Extra: 1, HedgeQuantile: 0.9}},
	}
	var pts []point
	for _, mode := range []netsim.Mode{netsim.ExclusiveHold, netsim.FluidFairSharing} {
		for _, v := range policies {
			p := contended(o, v.name, 2, 1, 6, 3, 2)
			p.NetMode, p.Hedge = mode, v.policy
			pts = append(pts, p)
		}
	}
	return pts
}

// repairPoints sweeps scheduler × healer throttle under a failure at
// t=10 s, early enough that most map waves still have to launch. A (6,4)
// code on 3 racks leaves free nodes to host rebuilt blocks. LF defers
// degraded tasks, so the healer can catch them while they queue; the
// degraded-first variants front-load them. The throttle caps the repair
// rate at a fraction of one NIC's bandwidth, "off" being no healer.
func repairPoints(o Options) []point {
	throttles := []struct {
		name     string
		fraction float64
	}{{"off", 0}, {"5%", 0.05}, {"25%", 0.25}, {"100%", 1.0}}
	var pts []point
	for _, k := range lfBDFEDF {
		for _, th := range throttles {
			p := contended(o, th.name, 3, 2, 6, 4, 4)
			p.FailAt, p.Scheduler = 10, k
			if th.fraction > 0 {
				p.Repair = repair.Config{Enabled: true, RateFraction: th.fraction}
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// The run metrics the tables report.
var (
	readTimes   = (*runtime.JobResult).DegradedReadTimes
	bytesMoved  = func(r *runtime.Result) float64 { return r.BytesMoved }
	wastedBytes = func(r *runtime.Result) float64 { return r.WastedBytes }
	makespan    = func(r *runtime.Result) float64 { return r.Makespan }
)

// healer declares a column that shows "-" at points without a healer.
func healer(name string, cell func(row) string) column[row] {
	return column[row]{name, func(r row) string {
		if !r.Repair.Enabled {
			return "-"
		}
		return cell(r)
	}}
}

// healedMean is the mean time from the failure to a healer milestone, or
// "-" when a run never healed: it has no redundancy time to average.
func healedMean(at func(*runtime.RepairStats) float64) func(row) string {
	return func(r row) string {
		var sum float64
		for _, runs := range r.runs {
			st := runs[0].Repair
			if st == nil || st.FirstRepairAt < 0 || st.FullRedundancyAt < 0 {
				return "-"
			}
			sum += at(st) - r.FailAt
		}
		return f1(sum / float64(len(r.runs)))
	}
}

// healerStats returns a run's healer stats, zero if the healer never
// acted.
func healerStats(r *runtime.Result) runtime.RepairStats {
	if r.Repair == nil {
		return runtime.RepairStats{}
	}
	return *r.Repair
}

// stormPoints floods a small cluster with thousands of tiny jobs from
// three tenants of unequal weight and share, one point per job-level
// policy (Options.JobSched keeps just one), all on seed 1.
func stormPoints(o Options) []point {
	numJobs := 1200
	if o.Quick {
		numJobs = 150
	}
	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 4
	tpl.MapTime = mapred.Dist{Mean: 3, Std: 0.3}
	tpl.ReduceTime = mapred.Dist{Mean: 2, Std: 0.2}
	tpl.NumReduceTasks = 1
	tpl.ShuffleRatio = 0.05
	jobs := must(workload.GenerateStorm(workload.StormOptions{
		NumJobs: numJobs,
		Tenants: []workload.TenantSpec{
			{Name: "alpha", Weight: 4, Share: 0.5},
			{Name: "beta", Weight: 2, Share: 0.3},
			{Name: "gamma", Weight: 1, Share: 0.2},
		},
		MeanInterArrival: 0.5,
		Template:         tpl,
		VaryBlocks:       4,
		DeadlineSlack:    60,
		Seed:             42,
	}))
	policies := []jobsched.Kind{jobsched.Fifo, jobsched.FairShare, jobsched.Quota, jobsched.Deadline}
	if o.JobSched != "" {
		policies = []jobsched.Kind{must(jobsched.ParseKind(o.JobSched))}
	}
	pts := make([]point, len(policies))
	for i, policy := range policies {
		p := point{label: policy.String(), seed: 1, Scenario: scenario.Scenario{Config: mapred.DefaultConfig(), Jobs: jobs}}
		p.Nodes, p.Racks, p.N, p.K, p.NumBlocks, p.BlockSizeBytes = 8, 2, 4, 2, 64, 16e6
		p.JobSched = jobsched.Config{Policy: policy, QuotaSlots: 4}
		pts[i] = p
	}
	return pts
}

// perTenant lays a storm out as its row over all jobs, then a row per
// tenant in name order.
func perTenant(r row) []row {
	var tenants []string
	for _, j := range r.runs[0][0].Jobs {
		tenants = append(tenants, j.Tenant)
	}
	slices.Sort(tenants)
	rows := []row{r}
	rows[0].name = "(all)"
	for _, t := range slices.Compact(tenants) {
		r.name, r.tenant = t, t
		rows = append(rows, r)
	}
	return rows
}

func queueDelay(j *runtime.JobResult) []float64 { return []float64{j.QueueDelay} }
func runtimes(j *runtime.JobResult) []float64   { return []float64{j.Runtime()} }
