package exp

import (
	"context"
	"fmt"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

func init() {
	register(Experiment{
		ID:    "hedge",
		Title: "Degraded-read tail latency under hedged fan-ins (k+Δ races, deadline hedging)",
		Paper: "extension beyond the paper: the paper's degraded reads wait for all k sources; this table quantifies redundant-request fan-ins — fetch k+Δ and keep the first k, or hedge a flow past a latency-quantile deadline — trading extra network volume for tail latency",
		Run:   runHedge,
	})
}

// hedgePolicies is the policy sweep of the hedge table: the unhedged
// baseline, eager k+Δ races, and deadline hedging at the p90 of observed
// per-flow latencies.
var hedgePolicies = []struct {
	name   string
	policy runtime.HedgePolicy
}{
	{"delta=0", runtime.HedgePolicy{}},
	{"delta=1", runtime.HedgePolicy{Extra: 1}},
	{"delta=2", runtime.HedgePolicy{Extra: 2}},
	{"hedge-p90", runtime.HedgePolicy{HedgeQuantile: 0.9}},
	{"delta=1+p90", runtime.HedgePolicy{Extra: 1, HedgeQuantile: 0.9}},
}

// hedgeModes runs the sweep under both contention models. Under
// ExclusiveHold the fan-in tail is queueing delay at the busiest source
// NIC, which a spare skips for free (a queued loser has moved no bytes):
// hedging strictly improves the tail. Under FluidFairSharing every extra
// flow dilutes the reader's own NIC share, so the same policies pay a
// latency and wasted-volume price — the table shows both regimes.
var hedgeModes = []netsim.Mode{netsim.ExclusiveHold, netsim.FluidFairSharing}

// hedgeConfig builds the contended scenario the sweep runs in: one map
// slot per node so the reader NIC is not self-saturated, 40 MB/s NICs as
// the bottleneck links, one failed node, and locality-first scheduling,
// which defers degraded tasks until the end of the map phase where their
// fan-ins pile onto the surviving sources at once.
func hedgeConfig(mode netsim.Mode) (mapred.Config, []mapred.JobSpec) {
	cfg := mapred.DefaultConfig()
	cfg.Nodes = 12
	cfg.Racks = 2
	cfg.MapSlotsPerNode = 1
	cfg.N, cfg.K = 6, 3
	cfg.NumBlocks = 240
	cfg.BlockSizeBytes = 64e6
	cfg.NodeBps = 5 * netsim.Mbps * 64 // 40 MB/s NICs: the bottleneck
	cfg.RackBps = netsim.Gbps
	cfg.NetMode = mode
	cfg.FailNodes = []topology.NodeID{0}

	job := mapred.DefaultJob()
	job.MapTime = mapred.Dist{Mean: 2, Std: 0.2}
	job.NumReduceTasks = 0 // map-only: the table isolates read latency
	return cfg, []mapred.JobSpec{job}
}

// runHedge sweeps the hedge policies over seeded failure runs in both
// contention modes and reports degraded-read and per-flow latency
// percentiles next to the network volume each policy moved and wasted.
func runHedge(ctx context.Context, o Options) (*Table, error) {
	seeds := o.seeds(10, 3)
	quickBlocks := 0
	if o.Quick {
		quickBlocks = 120
	}

	// results[m][v][s] holds mode m, policy v, seed s; aggregation happens
	// sequentially afterwards so the table is deterministic.
	results := make([][][]*mapred.Result, len(hedgeModes))
	for m := range results {
		results[m] = make([][]*mapred.Result, len(hedgePolicies))
		for v := range results[m] {
			results[m][v] = make([]*mapred.Result, seeds)
		}
	}
	perMode := len(hedgePolicies) * seeds
	err := parallelMap(ctx, len(hedgeModes)*perMode, o.parallelism(), func(i int) error {
		m, v, s := i/perMode, (i%perMode)/seeds, i%seeds
		cfg, jobs := hedgeConfig(hedgeModes[m])
		if quickBlocks > 0 {
			cfg.NumBlocks = quickBlocks
		}
		cfg.Seed = int64(s) + 1
		cfg.Hedge = hedgePolicies[v].policy
		cfg.Trace = o.Trace
		cfg.TraceLabel = fmt.Sprintf("%v/%s/seed%d", hedgeModes[m], hedgePolicies[v].name, cfg.Seed)
		res, err := mapred.RunContext(ctx, cfg, jobs)
		if err != nil {
			return fmt.Errorf("%v/%s seed %d: %w", hedgeModes[m], hedgePolicies[v].name, cfg.Seed, err)
		}
		results[m][v][s] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	cfg, _ := hedgeConfig(hedgeModes[0])
	blocks := cfg.NumBlocks
	if quickBlocks > 0 {
		blocks = quickBlocks
	}
	t := &Table{
		ID: "hedge",
		Title: fmt.Sprintf("hedged degraded reads: %d nodes, (%d,%d) code, %d blocks, %d seeds",
			cfg.Nodes, cfg.N, cfg.K, blocks, seeds),
		Columns: []string{"net", "policy", "degraded", "read p50", "read p90", "read p99",
			"flow p50", "flow p99", "moved GB", "wasted GB", "extra", "makespan"},
		Notes: []string{
			"read pXX = percentiles of per-task degraded-read durations (launch to k-th source block), pooled across seeds",
			"flow pXX = percentiles of per-source-flow fan-in latencies (hedged runs only; '-' when unhedged)",
			"extra = wasted bytes (redundant flows cancelled after the k-th arrival) over useful bytes moved",
			"delta=D races k+D eager sources; hedge-p90 launches a standby when a flow outlives the p90 of observed latencies",
			"hold: spares skip the queue at the busiest source NIC and queued losers move no bytes, so the tail shrinks for free; fluid: every extra flow dilutes the reader's fair share, so hedging trades latency and wasted volume",
		},
	}
	for m, mode := range hedgeModes {
		for v, variant := range hedgePolicies {
			var reads, flows []float64
			var moved, wasted, makespan float64
			for _, res := range results[m][v] {
				for j := range res.Jobs {
					reads = append(reads, res.Jobs[j].DegradedReadTimes()...)
					flows = append(flows, res.Jobs[j].DegradedFlowLatencies()...)
				}
				moved += res.BytesMoved
				wasted += res.WastedBytes
				makespan += res.Makespan
			}
			n := float64(len(results[m][v]))
			rq := stats.Quantiles(reads, 0.5, 0.9, 0.99)
			flowP50, flowP99 := "-", "-"
			if len(flows) > 0 {
				fq := stats.Quantiles(flows, 0.5, 0.99)
				flowP50, flowP99 = f1(fq[0]), f1(fq[1])
			}
			extra := "-"
			if moved > 0 {
				extra = pct(wasted / moved * 100)
			}
			t.Rows = append(t.Rows, []string{
				mode.String(), variant.name, fmt.Sprintf("%d", len(reads)),
				f1(rq[0]), f1(rq[1]), f1(rq[2]),
				flowP50, flowP99,
				f2(moved / n / 1e9), f2(wasted / n / 1e9), extra,
				f1(makespan / n),
			})
		}
	}
	return t, nil
}
