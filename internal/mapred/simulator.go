package mapred

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/runtime"
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
// backend, failure picks — and describes the run to the runtime. It is
// split from RunContext so a test can read what it hands the runtime.
func prepare(ctx context.Context, cfg Config, jobs []JobSpec) (*simRun, error) {
	cluster, err := cfg.Cluster()
	if err != nil {
		return nil, fmt.Errorf("mapred: %w", err)
	}
	if err := cfg.validate(cluster.Spec()); err != nil {
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

	code, err := cfg.Code()
	if err != nil {
		return nil, fmt.Errorf("mapred: %w", err)
	}
	rng := stats.NewRNG(cfg.Seed)

	// Place every job's input, one metadata-only file each, while the
	// cluster is healthy. The store counts blocks; their size is the
	// healer's BlockBytes.
	fs, err := dfs.New(cluster, code, 1, cfg.Policy, rng.Fork())
	if err != nil {
		return nil, err
	}
	backend := &simBackend{Healer: &runtime.Healer{FS: fs, BlockBytes: cfg.BlockSizeBytes, Strategy: cfg.SourceStrategy},
		specs: specs, parts: make([][]runtime.Chunk, len(specs))}
	rjobs := make([]runtime.JobSpec, len(specs))
	var mapTime float64
	for i := range specs {
		backend.parts[i] = simPartitions(&specs[i], cfg.BlockSizeBytes)
		file, err := fs.CreateMeta(fmt.Sprintf("job%d/%s", i, specs[i].Name), specs[i].NumBlocks)
		if err != nil {
			return nil, fmt.Errorf("mapred: placing job %q: %w", specs[i].Name, err)
		}
		rjobs[i] = runtime.JobSpec{
			Name:        specs[i].Name,
			SubmitAt:    specs[i].SubmitAt,
			Tasks:       backend.AddJob(file, specs[i].NumBlocks),
			NumReducers: specs[i].NumReduceTasks,
			JobMeta:     specs[i].JobMeta,
		}
		mapTime += specs[i].MapTime.Mean
	}
	mapTime /= float64(len(specs))

	failRNG := rng.Fork()
	backend.RNG = rng.Fork()

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
		// The runtime fails the picks at their time.
		return topology.PickFailure(cluster, cfg.Failure, failRNG)
	}
	toFail, err := pickFailures()
	if err != nil {
		return nil, err
	}

	return &simRun{params: runtime.Params{
		Name:             "mapred",
		Ctx:              ctx,
		Cluster:          cluster,
		Options:          cfg.Options,
		MapTime:          mapTime,
		DegradedReadTime: runtime.DegradedReadTime(cluster, code, cfg.BlockSizeBytes, cfg.RackBps),
		FailAt:           cfg.FailAt,
		ToFail:           toFail,
	}, backend: backend, jobs: rjobs}, nil
}

// simBackend is the simulated-cost runtime backend: no real data moves,
// task costs are drawn from the configured distributions, and the Healer
// plans degraded reads and repairs against the metadata-only store
// without decoding anything. Task costs and source picks share the
// Healer's RNG.
type simBackend struct {
	*runtime.Healer // the store and the input planner
	specs           []JobSpec
	parts           [][]runtime.Chunk // per job, what AwaitOutput returns for every map
}

var _ runtime.Backend = (*simBackend)(nil)

// Execute implements runtime.Backend: charge a sampled map duration.
func (b *simBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	spec := &b.specs[job]
	return b.RNG.Normal(spec.MapTime.Mean, spec.MapTime.Std), nil
}

// AwaitOutput implements runtime.Backend: every reducer receives an equal
// share of the map output (ShuffleRatio of the block size). Every map of a
// job splits alike, so all of them share the job's one slice.
func (b *simBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	return b.parts[job], nil
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

// StartReduce implements runtime.Backend: charge a sampled reduce
// duration, independent of the received volume.
func (b *simBackend) StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	spec := &b.specs[job]
	return b.RNG.Normal(spec.ReduceTime.Mean, spec.ReduceTime.Std)
}

// AwaitReduce implements runtime.Backend: a simulated reduce has no work
// to wait for.
func (b *simBackend) AwaitReduce(job, reducer int, node topology.NodeID) error { return nil }

// ReduceReset implements runtime.Backend: nothing buffered to discard.
func (b *simBackend) ReduceReset(job, reducer int) {}
