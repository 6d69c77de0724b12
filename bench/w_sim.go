package main

import (
	"fmt"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	rt "degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
	wlgen "degradedfirst/internal/workload"
)

// simPlan is one mapred.Run call of a simulator workload.
type simPlan struct {
	label string
	cfg   mapred.Config
	jobs  []mapred.JobSpec
}

// simInstance is one iteration of a simulator workload: the sims to run
// and the output checks that apply to them.
type simInstance struct {
	plans []simPlan
	// reduction is the band edf_vs_lf_reduction_pct must fall in when the
	// workload runs both schedulers (a coarse fidelity check; the exact
	// value is a metric).
	reductionLo, reductionHi float64
	// wantHeal requires the healer to reach full redundancy.
	wantHeal bool
}

// size selects how much of a simulator workload a plan builder emits:
// the workload itself, the reduced variant set-up runs once as a
// warm-up, or the smoke-test variant of -scale tiny.
type size int

const (
	full size = iota
	warm
	tiny
)

// simWorkload wraps a plan builder into a workload. Set-up builds the
// plans from the seed and runs the warm-up variant once, so first-use
// costs (page faults, heap growth, lazily built tables) land in setup_s
// and not in the first timed sim.
func simWorkload(name, why string, nominalS float64, build func(seed int64, sz size) *simInstance) *workload {
	return &workload{
		name: name, why: why, nominalS: nominalS,
		setUp: func(e *env) (instance, error) {
			sz, warmUp := full, warm
			if e.tiny {
				sz, warmUp = tiny, tiny
			}
			for _, p := range build(e.seed, warmUp).plans {
				if _, err := mapred.Run(p.cfg, p.jobs); err != nil {
					return nil, fmt.Errorf("warm-up %s: %w", p.label, err)
				}
			}
			return build(e.seed, sz), nil
		},
	}
}

func (s *simInstance) run(e *env) (*outcome, error) {
	o := &outcome{}
	for _, p := range s.plans {
		cfg := p.cfg
		cfg.Trace, cfg.TraceLabel = e.traceSink(), p.label
		sp := e.spans.start("mapred.Run")
		t0 := startWatch()
		res, err := mapred.Run(cfg, p.jobs)
		host := t0.seconds()
		e.spans.end(sp, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		o.ops++
		for j := range res.Jobs {
			o.tasks += len(res.Jobs[j].Tasks) + len(res.Jobs[j].Reduces)
		}
		o.runs = append(o.runs, mrRun{
			label: p.label, sched: res.Scheduler, makespan: res.Makespan,
			moved: res.BytesMoved + res.WastedBytes, jobs: res.Jobs,
			repair: res.Repair, failAt: cfg.FailAt, hostS: host,
		})
	}
	return o, nil
}

func (s *simInstance) check(_ *env, o *outcome) []string {
	var bad []string
	var lf, edf []mrRun
	for i, r := range o.runs {
		p := s.plans[i]
		if len(r.jobs) != len(p.jobs) {
			bad = append(bad, fmt.Sprintf("%s: %d job results for %d jobs", r.label, len(r.jobs), len(p.jobs)))
			continue
		}
		for j := range r.jobs {
			blocks := p.jobs[j].NumBlocks
			if blocks == 0 {
				blocks = p.cfg.NumBlocks
			}
			if got := len(r.jobs[j].Tasks); got != blocks {
				bad = append(bad, fmt.Sprintf("%s job %d: %d map tasks finished, want %d", r.label, j, got, blocks))
			}
			if got := len(r.jobs[j].Reduces); got != p.jobs[j].NumReduceTasks {
				bad = append(bad, fmt.Sprintf("%s job %d: %d reduce tasks finished, want %d", r.label, j, got, p.jobs[j].NumReduceTasks))
			}
		}
		if s.wantHeal && (r.repair == nil || r.repair.FullRedundancyAt < r.failAt || r.repair.BlocksRepaired == 0) {
			bad = append(bad, fmt.Sprintf("%s: healer did not reach full redundancy: %+v", r.label, r.repair))
		}
		switch r.sched {
		case "LF":
			lf = append(lf, r)
		case "EDF":
			edf = append(edf, r)
		}
	}
	if len(lf) > 0 && len(edf) > 0 {
		l, e := meanJobRuntime(lf), meanJobRuntime(edf)
		if red := 100 * (l - e) / l; red < s.reductionLo || red > s.reductionHi {
			bad = append(bad, fmt.Sprintf("EDF cuts job runtime by %.1f%%, outside the [%g, %g] band around the paper's result", red, s.reductionLo, s.reductionHi))
		}
	}
	return bad
}

func (s *simInstance) close() {}

// paperPlans is the paper's Section V-B default (40 nodes in 4 racks,
// (20,15), 1440 blocks of 128 MB, 30 reducers, 1% shuffle, one node
// failed at t=0) under LF and EDF on ten consecutive seeds.
func paperPlans(seed int64, sz size) *simInstance {
	seeds, blocks := 10, 1440
	switch sz {
	case warm:
		seeds = 1
	case tiny:
		seeds, blocks = 1, 180
	}
	s := &simInstance{reductionLo: 10, reductionHi: 60}
	for i := 0; i < seeds; i++ {
		for _, k := range []mapred.SchedulerKind{mapred.LF, mapred.EDF} {
			cfg := mapred.DefaultConfig()
			cfg.NumBlocks = blocks
			cfg.Scheduler = k
			cfg.Seed = seed + int64(i)
			s.plans = append(s.plans, simPlan{
				label: fmt.Sprintf("%v/seed%d", k, cfg.Seed),
				cfg:   cfg, jobs: []mapred.JobSpec{mapred.DefaultJob()},
			})
		}
	}
	return s
}

// scalePlans is one 200-node EDF job with 60 reducers, a node failure at
// t=60 s and the healer throttled to a quarter of a NIC.
func scalePlans(seed int64, sz size) *simInstance {
	cfg := mapred.DefaultConfig()
	cfg.Nodes, cfg.Racks, cfg.NumBlocks = 200, 20, 7200
	job := mapred.DefaultJob()
	job.NumReduceTasks = 60
	cfg.FailAt = 60
	switch sz {
	case warm:
		cfg.Nodes, cfg.Racks, cfg.NumBlocks = 80, 8, 2880
		job.NumReduceTasks = 24
	case tiny:
		cfg.Nodes, cfg.Racks, cfg.NumBlocks = 40, 4, 360
		job.NumReduceTasks = 10
		cfg.FailAt = 20
	}
	cfg.Scheduler = mapred.EDF
	cfg.Repair = repair.Config{Enabled: true, RateFraction: 0.25}
	cfg.Seed = seed
	return &simInstance{
		wantHeal: true,
		plans:    []simPlan{{label: fmt.Sprintf("EDF/seed%d", seed), cfg: cfg, jobs: []mapred.JobSpec{job}}},
	}
}

// stormTenants are the three tenants of the job storm.
var stormTenants = []wlgen.TenantSpec{
	{Name: "alpha", Weight: 4, Share: 0.5},
	{Name: "beta", Weight: 2, Share: 0.3},
	{Name: "gamma", Weight: 1, Share: 0.2},
}

// stormPlans is a 2000-job multi-tenant storm on a 64-node fat tree
// under EDF, fair-share job scheduling and k+1 hedged degraded reads.
func stormPlans(seed int64, sz size) *simInstance {
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 4, EdgesPerPod: 4, NodesPerEdge: 4,
		NodeBps: netsim.Gbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		panic(err) // constant arguments
	}
	cfg := mapred.DefaultConfig()
	cfg.Nodes, cfg.Racks, cfg.RackBps = 0, 0, 0
	cfg.Topology = &spec
	cfg.N, cfg.K = 6, 4
	cfg.BlockSizeBytes = 64e6
	cfg.Scheduler = mapred.EDF
	cfg.JobSched = jobsched.Config{Policy: jobsched.FairShare}
	cfg.Hedge = rt.HedgePolicy{Extra: 1}
	cfg.Seed = seed

	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 32
	tpl.MapTime = mapred.Dist{Mean: 3, Std: 0.3}
	tpl.ReduceTime = mapred.Dist{Mean: 2, Std: 0.2}
	tpl.NumReduceTasks = 2
	tpl.ShuffleRatio = 0.05
	numJobs := 2000
	switch sz {
	case warm:
		numJobs = 150
	case tiny:
		numJobs = 40
	}
	jobs, err := wlgen.GenerateStorm(wlgen.StormOptions{
		NumJobs: numJobs, Tenants: stormTenants,
		MeanInterArrival: 0.5, Template: tpl, VaryBlocks: 4,
		DeadlineSlack: 60, Seed: 41 + seed,
	})
	if err != nil {
		panic(err) // constant arguments
	}
	return &simInstance{plans: []simPlan{{label: fmt.Sprintf("EDF/seed%d", seed), cfg: cfg, jobs: jobs}}}
}
