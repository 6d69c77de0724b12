package minimr

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Harness bundles the virtual-clock machinery one engine run needs:
// event engine, network model, scheduler, scheduling environment, the
// runtime job specs, and the healer over the run's DFS. Both
// the in-process engine (RunContext) and the distributed master
// (internal/cluster) build their runs from the same harness, so their
// virtual schedules are constructed identically.
type Harness struct {
	Engine    *sim.Engine
	Net       *netsim.Net
	Scheduler sched.Scheduler
	Env       *sched.Env
	// RJobs are the runtime-facing job specs, index-aligned with the jobs
	// passed to NewHarness.
	RJobs []runtime.JobSpec
	// Healer is the run's store and input planner, for backends to embed:
	// Healer.Files[job] is the job's input file, and its placement the one
	// record of where each block lives. Its RNG, seeded from Options.Seed,
	// is the run's only random stream.
	Healer *runtime.Healer
}

// NewHarness validates opts and jobs (normalizing opts defaults in
// place) and builds the run machinery over the already-populated DFS.
func NewHarness(fs *dfs.FS, opts *Options, jobs []Job) (*Harness, error) {
	if fs == nil {
		return nil, fmt.Errorf("minimr: nil file system")
	}
	if err := opts.Validate(fs.Cluster().Spec()); err != nil {
		return nil, err
	}
	if err := ValidateJobs(jobs); err != nil {
		return nil, err
	}

	cluster := fs.Cluster()
	eng := sim.New()
	net, err := netsim.New(eng, cluster, opts.netConfig())
	if err != nil {
		return nil, err
	}
	scheduler, err := opts.Scheduler.New(cluster.NumRacks())
	if err != nil {
		return nil, err
	}

	// EDF needs a degraded-read-time threshold; derive it from the code,
	// block size and rack bandwidth as in the analysis. A degraded read
	// fetches k blocks, or a locally repairable code's local group. On
	// multi-tier clusters the leaf-tier capacity of the fabric spec stands
	// in for the rack bandwidth unless the option overrides it.
	rackBps := opts.RackBps
	if rackBps == 0 {
		rackBps = cluster.Spec().Tiers[0].LinkBps
	}
	reads := fs.Code().K()
	if lr, ok := fs.Code().(erasure.LocalRepairer); ok {
		group, _ := lr.LocalRepairGroup(0)
		reads = len(group)
	}
	threshold := sched.ExpectedDegradedReadTime(cluster.NumRacks(), reads, float64(fs.BlockSize()), rackBps)
	meanMapCost := 0.0
	for i := range jobs {
		meanMapCost += jobs[i].MapCost.Seconds(float64(fs.BlockSize()))
	}
	meanMapCost /= float64(len(jobs))
	env := &sched.Env{
		Cluster:          cluster,
		DegradedReadTime: threshold,
		PerTaskTime: func(id topology.NodeID) float64 {
			return meanMapCost * cluster.Node(id).SpeedFactor
		},
	}

	h := &Harness{
		Engine:    eng,
		Net:       net,
		Scheduler: scheduler,
		Env:       env,
		RJobs:     make([]runtime.JobSpec, len(jobs)),
		Healer: &runtime.Healer{FS: fs, BlockBytes: float64(fs.BlockSize()),
			Strategy: opts.SourceStrategy, RNG: stats.NewRNG(opts.Seed)},
	}
	for i := range jobs {
		file, err := fs.File(jobs[i].Input)
		if err != nil {
			return nil, err
		}
		natives := file.NativeBlocks()
		tasks := make([]sched.TaskSpec, len(natives))
		for t, b := range natives {
			tasks[t] = sched.TaskSpec{Block: b, Holder: file.Placement.Holder(b)}
		}
		h.Healer.Files = append(h.Healer.Files, file)
		h.RJobs[i] = runtime.JobSpec{
			Name:        jobs[i].Name,
			SubmitAt:    jobs[i].SubmitAt,
			Tasks:       tasks,
			NumReducers: jobs[i].NumReducers,
			JobMeta:     jobs[i].JobMeta,
		}
	}
	return h, nil
}

// Run drives the shared master loop with the given backend; outputs is
// the backend's per-job output, filled as the run proceeds. name, poll
// and sink are runtime.Params' Name, PollFailures and Sink.
func (h *Harness) Run(ctx context.Context, name string, opts *Options, backend runtime.Backend,
	poll func() []topology.NodeID, sink trace.Sink, outputs []map[string]string) (*Report, error) {
	res, err := runtime.Run(runtime.Params{
		Name:         name,
		Ctx:          ctx,
		Engine:       h.Engine,
		Cluster:      h.Env.Cluster,
		Net:          h.Net,
		Scheduler:    h.Scheduler,
		Env:          h.Env,
		Features:     opts.Features,
		PollFailures: poll,
		Sink:         sink,
		Label:        opts.TraceLabel,
	}, backend, h.RJobs)
	if err != nil {
		return nil, err
	}
	return &Report{
		Scheduler:   res.Scheduler,
		Failed:      res.Failed,
		Jobs:        res.Jobs,
		Outputs:     outputs,
		Makespan:    res.Makespan,
		BytesMoved:  res.BytesMoved,
		WastedBytes: res.WastedBytes,
		Repair:      res.Repair,
	}, nil
}
