package mapred

import (
	"context"
	"fmt"
	"sort"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// Run executes one simulation: builds the cluster, places every job's
// blocks while the cluster is healthy, injects the configured failure
// (at time zero, or mid-run when FailAt is set), then delegates the
// heartbeat-driven master loop — scheduling, block transfers, degraded
// reads, shuffle, reduce processing, and mid-run failure recovery — to
// the shared cluster runtime with a simulated-cost backend.
func Run(cfg Config, jobs []JobSpec) (*Result, error) {
	return RunContext(context.Background(), cfg, jobs)
}

// RunContext is Run with cancellation: ctx aborts the simulation at the
// next heartbeat.
func RunContext(ctx context.Context, cfg Config, jobs []JobSpec) (*Result, error) {
	r, err := prepare(ctx, cfg, jobs)
	if err != nil {
		return nil, err
	}
	return runtime.Run(r.params, r.backend, r.jobs)
}

// simRun is one prepared simulation: the runtime's inputs.
type simRun struct {
	params  runtime.Params
	backend *simBackend
	jobs    []runtime.JobSpec
}

// prepare builds everything one simulation runs on — cluster, store,
// engine, network, scheduler, failure picks. It is split from RunContext
// so a test can read the engine's and the network's counters after the run.
func prepare(ctx context.Context, cfg Config, jobs []JobSpec) (*simRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("mapred: no jobs")
	}
	specs := make([]JobSpec, len(jobs))
	copy(specs, jobs)
	for i := range specs {
		if err := cfg.validateJob(&specs[i]); err != nil {
			return nil, err
		}
		// Submission order is slice order (Idx order) in every job policy,
		// map and reduce side alike.
		if i > 0 && specs[i].SubmitAt < specs[i-1].SubmitAt {
			return nil, fmt.Errorf("mapred: job %q submitted at %v, before job %q ahead of it at %v",
				specs[i].Name, specs[i].SubmitAt, specs[i-1].Name, specs[i-1].SubmitAt)
		}
	}

	code, err := erasure.New(cfg.N, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("mapred: %w", err)
	}
	rng := stats.NewRNG(cfg.Seed)
	cluster, err := topology.New(topology.Config{
		Nodes:              cfg.Nodes,
		Racks:              cfg.Racks,
		RackSizes:          cfg.RackSizes,
		Spec:               cfg.Topology,
		MapSlotsPerNode:    cfg.MapSlotsPerNode,
		ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
	})
	if err != nil {
		return nil, err
	}
	// Deterministic application of heterogeneous speed factors.
	ids := make([]int, 0, len(cfg.SpeedFactors))
	for id := range cfg.SpeedFactors {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := cluster.SetSpeedFactor(topology.NodeID(id), cfg.SpeedFactors[topology.NodeID(id)]); err != nil {
			return nil, err
		}
	}

	// Place every job's input, one metadata-only file each, while the
	// cluster is healthy. The store counts blocks; their size is the
	// healer's BlockBytes.
	fs, err := dfs.New(cluster, code, 1, cfg.Policy, rng.Fork())
	if err != nil {
		return nil, err
	}
	backend := &simBackend{Healer: &runtime.Healer{FS: fs, BlockBytes: cfg.BlockSizeBytes}, cfg: cfg, specs: specs,
		parts: make([][]runtime.Chunk, len(specs))}
	rjobs := make([]runtime.JobSpec, len(specs))
	for i := range specs {
		backend.parts[i] = simPartitions(&specs[i], cfg.BlockSizeBytes)
		file, err := fs.CreateMeta(fmt.Sprintf("job%d/%s", i, specs[i].Name), specs[i].NumBlocks)
		if err != nil {
			return nil, fmt.Errorf("mapred: placing job %q: %w", specs[i].Name, err)
		}
		tasks := make([]sched.TaskSpec, specs[i].NumBlocks)
		for t := range tasks {
			b := backend.TaskBlock(t)
			tasks[t] = sched.TaskSpec{Block: b, Holder: file.Placement.Holder(b)}
		}
		backend.Files = append(backend.Files, file)
		rjobs[i] = runtime.JobSpec{
			Name:        specs[i].Name,
			SubmitAt:    specs[i].SubmitAt,
			Tasks:       tasks,
			NumReducers: specs[i].NumReduceTasks,
			JobMeta:     specs[i].JobMeta,
		}
	}

	failRNG := rng.Fork()
	eng := sim.New()
	net, err := netsim.New(eng, cluster, cfg.netConfig())
	if err != nil {
		return nil, err
	}
	scheduler, err := cfg.Scheduler.New(cluster.NumRacks())
	if err != nil {
		return nil, err
	}
	backend.rng = rng.Fork()

	env := &sched.Env{
		Cluster: cluster,
		PerTaskTime: func(id topology.NodeID) float64 {
			return specs[0].MapTime.Mean * cluster.Node(id).SpeedFactor
		},
		DegradedReadTime: cfg.ExpectedDegradedReadTime(),
	}

	// Failure injection: immediately, or scheduled mid-run.
	pickFailures := func() ([]topology.NodeID, error) {
		if len(cfg.FailNodes) > 0 {
			for _, id := range cfg.FailNodes {
				if int(id) < 0 || int(id) >= cluster.NumNodes() {
					return nil, fmt.Errorf("mapred: FailNodes entry %d out of range", id)
				}
			}
			return cfg.FailNodes, nil
		}
		// Pick per the pattern without failing yet (InjectFailure fails
		// them; recover immediately and let the runtime fail at its time).
		failed, err := topology.InjectFailure(cluster, cfg.Failure, failRNG)
		if err != nil {
			return nil, err
		}
		for _, id := range failed {
			cluster.RecoverNode(id)
		}
		return failed, nil
	}
	toFail, err := pickFailures()
	if err != nil {
		return nil, err
	}

	return &simRun{params: runtime.Params{
		Name:      "mapred",
		Ctx:       ctx,
		Engine:    eng,
		Cluster:   cluster,
		Net:       net,
		Scheduler: scheduler,
		Env:       env,
		Features:  cfg.Features,
		FailAt:    cfg.FailAt,
		ToFail:    toFail,
		Sink:      cfg.Trace,
		Label:     cfg.TraceLabel,
	}, backend: backend, jobs: rjobs}, nil
}

// simBackend is the simulated-cost runtime backend: no real data moves,
// task costs are drawn from the configured distributions, and degraded
// reads and repairs are planned against the metadata-only store without
// decoding anything.
type simBackend struct {
	*runtime.Healer // the store; repair.go trims its plans to RepairBlockCount
	cfg             Config
	specs           []JobSpec
	parts           [][]runtime.Chunk // per job, what Partitions returns for every map
	rng             *stats.RNG
}

func (b *simBackend) speed(id topology.NodeID) float64 {
	return b.FS.Cluster().Node(id).SpeedFactor
}

var _ runtime.Backend = (*simBackend)(nil)

// PlanInput implements runtime.Backend: node-local inputs need no
// transfers, rack-local/remote inputs one block transfer from the holder,
// and degraded inputs one transfer per repair source, then the spares.
func (b *simBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget) (runtime.InputPlan, error) {
	var plan runtime.InputPlan
	block := b.TaskBlock(task)
	place := b.Files[job].Placement
	switch class {
	case sched.ClassNodeLocal:
	case sched.ClassRackLocal, sched.ClassRemote:
		plan.Transfers = []runtime.Transfer{{Src: place.Holder(block), Bytes: b.BlockBytes}}
	case sched.ClassDegraded:
		sources, err := dfs.PickNSources(b.FS.Cluster(), place, block, node,
			b.cfg.RepairBlockCount, b.cfg.SourceStrategy, b.rng)
		if err != nil {
			return plan, fmt.Errorf("mapred: degraded read plan for %v: %w", block, err)
		}
		// RepairBlockCount != K models a locality-aware code, which gets
		// no spares.
		extra := dfs.SpareSources(b.FS.Cluster(), place, block, sources, spares.For(len(sources)))
		plan.Spares = len(extra)
		plan.Transfers = make([]runtime.Transfer, 0, len(sources)+len(extra))
		for _, src := range append(sources, extra...) {
			plan.Transfers = append(plan.Transfers, runtime.Transfer{Src: src.Node, Bytes: b.BlockBytes})
		}
	default:
		return plan, fmt.Errorf("mapred: unknown assignment class %v", class)
	}
	return plan, nil
}

// Execute implements runtime.Backend: charge a sampled map duration.
func (b *simBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	spec := &b.specs[job]
	return b.rng.Normal(spec.MapTime.Mean, spec.MapTime.Std) * b.speed(node), nil
}

// Partitions implements runtime.Backend: every reducer receives an equal
// share of the map output (ShuffleRatio of the block size). Every map of a
// job splits alike, so all of them share the job's one slice.
func (b *simBackend) Partitions(job, task int, output any) []runtime.Chunk {
	return b.parts[job]
}

// simPartitions builds the one partition slice every map of the job
// shares; nil for a map-only job.
func simPartitions(spec *JobSpec, blockBytes float64) []runtime.Chunk {
	n := spec.NumReduceTasks
	if n == 0 {
		return nil
	}
	chunk := spec.ShuffleRatio * blockBytes / float64(n)
	parts := make([]runtime.Chunk, n)
	for i := range parts {
		parts[i] = runtime.Chunk{Bytes: chunk}
	}
	return parts
}

// Deliver implements runtime.Backend: simulated shuffle carries no data.
func (b *simBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	return nil
}

// ReduceDuration implements runtime.Backend: charge a sampled reduce
// duration, independent of the received volume.
func (b *simBackend) ReduceDuration(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	spec := &b.specs[job]
	return b.rng.Normal(spec.ReduceTime.Mean, spec.ReduceTime.Std) * b.speed(node)
}

// ReduceReset implements runtime.Backend: nothing buffered to discard.
func (b *simBackend) ReduceReset(job, reducer int) {}

// ReduceFinish implements runtime.Backend: nothing to finalize.
func (b *simBackend) ReduceFinish(job, reducer int) {}
