package minimr

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/stats"
)

// Harness is one engine run described for the runtime: its Params, the
// runtime job specs, and the healer over the run's DFS. Both the in-process
// engine (RunContext) and the distributed master (internal/cluster) build
// their runs from the same harness, so their virtual schedules are
// constructed identically.
type Harness struct {
	Params runtime.Params
	// RJobs are the runtime-facing job specs, index-aligned with the jobs
	// passed to NewHarness.
	RJobs []runtime.JobSpec
	// Healer is the run's store and input planner, for backends to embed:
	// Healer.Files[job] is the job's input file, and its placement the one
	// record of where each block lives. Its RNG, seeded from Options.Seed,
	// is the run's only random stream.
	Healer *runtime.Healer
}

// NewHarness validates opts and jobs and describes the run over the
// already-populated DFS; name prefixes its errors and the run's. EDF's map
// time estimate is the mean per-block map cost over the jobs.
func NewHarness(name string, fs *dfs.FS, opts Options, jobs []Job) (*Harness, error) {
	if fs == nil {
		return nil, fmt.Errorf("%s: nil file system", name)
	}
	cluster := fs.Cluster()
	if err := opts.Validate(cluster.Spec()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := ValidateJobs(jobs); err != nil {
		return nil, err
	}

	blockBytes := float64(fs.BlockSize())
	h := &Harness{
		RJobs: make([]runtime.JobSpec, len(jobs)),
		Healer: &runtime.Healer{FS: fs, BlockBytes: blockBytes,
			Strategy: opts.SourceStrategy, RNG: stats.NewRNG(opts.Seed)},
	}
	var mapTime float64
	for i := range jobs {
		file, err := fs.File(jobs[i].Input)
		if err != nil {
			return nil, err
		}
		h.RJobs[i] = runtime.JobSpec{
			Name:        jobs[i].Name,
			SubmitAt:    jobs[i].SubmitAt,
			Tasks:       h.Healer.AddJob(file, file.Placement.NumNativeBlocks()),
			NumReducers: jobs[i].NumReducers,
			JobMeta:     jobs[i].JobMeta,
		}
		mapTime += jobs[i].MapCost.Seconds(blockBytes)
	}
	h.Params = runtime.Params{
		Name:             name,
		Cluster:          cluster,
		Options:          opts,
		MapTime:          mapTime / float64(len(jobs)),
		DegradedReadTime: runtime.DegradedReadTime(cluster, fs.Code(), blockBytes, opts.RackBps),
	}
	return h, nil
}

// Run drives the shared master loop with the given backend; outputs is
// the backend's per-job output, filled as the run proceeds.
func (h *Harness) Run(ctx context.Context, backend runtime.Backend, outputs []map[string]string) (*Report, error) {
	p := h.Params
	p.Ctx = ctx
	res, err := runtime.Run(p, backend, h.RJobs)
	if err != nil {
		return nil, err
	}
	return &Report{Result: *res, Outputs: outputs}, nil
}
