package mapred

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// TestPaperScalePerf runs the paper's default scale (40 nodes, 1440
// blocks, 30 reducers), holds the simulator core to its event budget, and
// pins the core's decisions as counts: a change to the engine or the solver
// that claims to be bit-identical must leave every one of them as it is.
// Skipped in -short mode.
func TestPaperScalePerf(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in short mode")
	}
	got := map[string]corePins{}
	for _, k := range []SchedulerKind{LF, EDF} {
		cfg := DefaultConfig()
		cfg.Scheduler = k
		cfg.Seed = 1
		start := time.Now()
		r, err := prepare(context.Background(), cfg, []JobSpec{DefaultJob()})
		if err != nil {
			t.Fatal(err)
		}
		var work runtime.Work
		r.params.Work = &work
		res, err := runtime.Run(r.params, r.backend, r.jobs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: runtime=%.1fs wall=%v degraded=%d remote=%d degRead=%.2fs",
			k, res.Jobs[0].Runtime(), time.Since(start).Round(time.Millisecond),
			res.Jobs[0].CountByClass()[4], res.Jobs[0].RemoteTasks(),
			res.Jobs[0].MeanDegradedReadTime())
		// The property that keeps this scale cheap, as counts (they repeat
		// exactly, so no wall-clock threshold is needed): a solve moves the
		// network's one completion event (a Reschedule, which counts as a
		// schedule and cancels nothing), so events that never fire stay
		// below one per solve. One event per visited flow, which is what the solver did
		// before, would put Scheduled near FlowsVisited — 30 to 50 times
		// Solves here.
		es, ns := work.Engine, work.Net
		t.Logf("%s: engine %+v, net %+v", k, es, ns)
		if unfired := es.Scheduled - es.Dispatched; unfired > ns.Solves {
			t.Errorf("%s: %d events scheduled but never dispatched, more than one per solve (%d solves over %d flow visits)",
				k, unfired, ns.Solves, ns.FlowsVisited)
		}
		got[k.String()] = corePins{es, ns}
	}
	checkPins(t, "paper_scale_counters.json", got)
}

// TestStormScalePerf pins the simulator core's counters on a job storm
// shaped like the benchmark's sim-storm workload at its warm-up size: 150
// fair-share jobs of three tenants with k+1 hedged degraded reads on a
// 64-node fat tree with oversubscribed edge and pod tiers. stormJobs makes
// the jobs workload.GenerateStorm makes there (package workload imports
// mapred, so this test cannot call it). Consecutive fillings here differ
// by a few flows, so a third of their iterations are taken from the last
// filling's record (Replayed) instead of being swept again: filling afresh
// every time computes all 196 624 iterations over 11 640 966 link visits,
// against 133 965 and 6 105 716 here. Like TestPaperScalePerf the counts
// are exact, so a change to the solver that claims to be bit-identical
// must leave the engine's counts and the solve counts as they are. Skipped
// in -short mode.
func TestStormScalePerf(t *testing.T) {
	if testing.Short() {
		t.Skip("storm run skipped in short mode")
	}
	cfg := stormConfig(t)
	r, err := prepare(context.Background(), cfg, stormJobs(150, 42))
	if err != nil {
		t.Fatal(err)
	}
	var work runtime.Work
	r.params.Work = &work
	if _, err := runtime.Run(r.params, r.backend, r.jobs); err != nil {
		t.Fatal(err)
	}
	es, ns := work.Engine, work.Net
	fillings := ns.Solves - ns.Deferred
	t.Logf("engine %+v, net %+v", es, ns)
	t.Logf("%d fillings: %.1f iterations computed and %.1f replayed, %.0f link visits each",
		fillings, float64(ns.Iterations)/float64(fillings), float64(ns.Replayed)/float64(fillings),
		float64(ns.LinkVisits)/float64(fillings))
	checkPins(t, "storm_scale_counters.json", map[string]corePins{"storm": {es, ns}})
}

// stormConfig is the storm's cluster and policies: a 64-node fat tree with
// oversubscribed edge and pod tiers, a (6,4) code on 64 MB blocks, EDF
// under fair-share job scheduling, and k+1 hedged degraded reads.
func stormConfig(t *testing.T) Config {
	t.Helper()
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 4, EdgesPerPod: 4, NodesPerEdge: 4,
		NodeBps: netsim.Gbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nodes, cfg.Racks, cfg.RackBps = 0, 0, 0
	cfg.Topology = &spec
	cfg.N, cfg.K = 6, 4
	cfg.BlockSizeBytes = 64e6
	cfg.Scheduler = EDF
	cfg.JobSched = jobsched.Config{Policy: jobsched.FairShare}
	cfg.Hedge = runtime.HedgePolicy{Extra: 1}
	cfg.Seed = 1
	return cfg
}

// stormJobs is the benchmark's storm of n jobs: alpha, beta and gamma
// submit half, 30 % and 20 % of them with weights 4, 2 and 1, a mean 0.5 s
// apart, each with 8 to 32 blocks and a deadline 30 to 90 s after it is
// submitted. It draws from the RNG as workload.GenerateStorm does.
func stormJobs(n int, seed int64) []JobSpec {
	tenants := []struct {
		name          string
		weight, share float64
	}{{"alpha", 4, 0.5}, {"beta", 2, 0.3}, {"gamma", 1, 0.2}}
	tpl := DefaultJob()
	tpl.NumBlocks = 32
	tpl.MapTime = Dist{Mean: 3, Std: 0.3}
	tpl.ReduceTime = Dist{Mean: 2, Std: 0.2}
	tpl.NumReduceTasks = 2
	tpl.ShuffleRatio = 0.05
	rng := stats.NewRNG(seed)
	jobs := make([]JobSpec, n)
	at := 0.0
	for i := range jobs {
		pick := rng.Float64()
		tenant := tenants[len(tenants)-1]
		for _, ts := range tenants {
			if pick < ts.share {
				tenant = ts
				break
			}
			pick -= ts.share
		}
		j := tpl
		j.Name = fmt.Sprintf("%s/j%04d", tenant.name, i)
		j.Tenant, j.Weight, j.SubmitAt = tenant.name, tenant.weight, at
		lo := j.NumBlocks / 4
		j.NumBlocks = lo + rng.Intn(j.NumBlocks-lo+1)
		j.Deadline = j.SubmitAt + (0.5+rng.Float64())*60
		jobs[i] = j
		at += rng.Exponential(0.5)
	}
	return jobs
}

// startCounter counts the transfers a run starts.
type startCounter int

func (c *startCounter) Emit(e trace.Event) {
	if e.Type == trace.EvTransferStart {
		*c++
	}
}

// launchCounter counts the map attempts a run launches.
type launchCounter int

func (c *launchCounter) Emit(e trace.Event) {
	if e.Type == trace.EvTaskLaunch {
		*c++
	}
}

// TestStormAllocBudget is a count, not a timing: TestStormScalePerf's
// 150-job storm, placement and submission included, launches 2 935 map
// attempts and may allocate at most 970 bytes and 5.51 mallocs per
// launch, 1.2x what it measures on its own: 808 bytes and 4.59 mallocs
// (780 bytes after other tests of the package have run; 815 bytes and
// 4.73 mallocs under -race). Placing a file makes no per-node index,
// submitting a job makes one task slab and one pool array, a map launch
// reuses a released attempt's record with its callbacks, processing
// event, flow list and input plan, a degraded plan's sources and spares
// are picked into that plan, a heartbeat moves its node's one event and
// reuses its Env's assignment buffer, and netsim keeps no path per node
// pair. It measured 1 694 bytes and 17.39 mallocs per launch before
// records were reused, 1 100 bytes and 8.38 mallocs before plans,
// assignments and paths were, and 896 bytes and 4.76 mallocs before
// heartbeats and processing events were moved and degraded sources
// picked in place.
// Skipped in -short mode.
func TestStormAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("storm run skipped in short mode")
	}
	const bytesBudget, mallocsBudget = 970.0, 5.51
	cfg := stormConfig(t)
	var launches launchCounter
	cfg.Trace = &launches
	jobs := stormJobs(150, 42)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := Run(cfg, jobs); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	perLaunch := float64(after.TotalAlloc-before.TotalAlloc) / float64(launches)
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(launches)
	t.Logf("%d map launches, %.1f bytes and %.3f mallocs allocated per launch", launches, perLaunch, mallocs)
	if perLaunch > bytesBudget || mallocs > mallocsBudget {
		t.Fatalf("storm run allocated %.0f bytes and %.3f mallocs per map launch, budget %.0f and %.2f",
			perLaunch, mallocs, bytesBudget, mallocsBudget)
	}
}

// TestPaperScaleAllocBudget is a count, not a timing: the seed-1 EDF run
// at the paper's scale starts 43 789 flows, nearly all of them shuffle
// transfers, and may allocate at most 24.5 bytes and 0.057 mallocs per
// started flow, 1.2x what it measures: 20.4 bytes and 0.047 mallocs, none
// of it per flow. netsim hands a finished flow's record to a later one and
// writes its links into that record, with no path kept per node pair,
// StartFlows returns a slice it reuses, the shuffle keeps its transfers in
// a slot table with one callback per job, the engine moves the network's
// one completion event instead of making a new one per solve, and map
// attempts and heartbeats reuse their records, callbacks and buffers. A
// fresh netsim.Flow per
// start (192 bytes) or a callback per shuffle flow (one malloc each) fails
// it; it measured 336 bytes and 2.37 mallocs before flows were recycled,
// 41 bytes and 0.30 mallocs before map attempts were, 33 bytes and 0.11
// mallocs before flows carried their links in place, and 25.9 bytes and
// 0.055 mallocs before the engine's events were moved rather than made
// and its cancels left no tombstone.
//
// The race build measures the same, so one budget serves both builds.
// Skipped in -short mode.
func TestPaperScaleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in short mode")
	}
	const bytesBudget, mallocsBudget = 24.5, 0.057
	cfg := DefaultConfig()
	cfg.Scheduler = EDF
	cfg.Seed = 1
	var starts startCounter
	cfg.Trace = &starts
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := Run(cfg, []JobSpec{DefaultJob()}); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(starts)
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(starts)
	t.Logf("%d flows started, %.1f bytes and %.4f mallocs allocated per flow", starts, perFlow, mallocs)
	if perFlow > bytesBudget || mallocs > mallocsBudget {
		t.Fatalf("paper-scale EDF run allocated %.1f bytes and %.4f mallocs per started flow, budget %.1f and %.3f",
			perFlow, mallocs, bytesBudget, mallocsBudget)
	}
}
