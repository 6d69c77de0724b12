package workload

import (
	"fmt"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/stats"
)

// MultiJobOptions configures the Section V-B multi-job experiment: 10 jobs
// whose inter-arrival times are exponential with mean 120 s.
type MultiJobOptions struct {
	// NumJobs is how many jobs to generate (paper: 10).
	NumJobs int
	// MeanInterArrival is the exponential inter-arrival mean in seconds
	// (paper: 120 s).
	MeanInterArrival float64
	// Template provides every per-job parameter except Name and SubmitAt.
	Template mapred.JobSpec
	// VaryBlocks, when positive, draws each job's block count uniformly
	// from [Template.NumBlocks/VaryBlocks, Template.NumBlocks] so jobs have
	// "different numbers of map tasks" as in the paper. Zero keeps the
	// template's count.
	VaryBlocks int
	// Seed drives arrival times and block-count variation.
	Seed int64
}

// GenerateMultiJob returns job specs with Poisson arrivals.
func GenerateMultiJob(opts MultiJobOptions) ([]mapred.JobSpec, error) {
	if opts.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: NumJobs must be positive, got %d", opts.NumJobs)
	}
	if opts.MeanInterArrival < 0 {
		return nil, fmt.Errorf("workload: negative MeanInterArrival")
	}
	rng := stats.NewRNG(opts.Seed)
	jobs := make([]mapred.JobSpec, opts.NumJobs)
	at := 0.0
	for i := range jobs {
		j := opts.Template
		j.Name = fmt.Sprintf("job-%02d", i)
		j.SubmitAt = at
		if opts.VaryBlocks > 1 && j.NumBlocks > 0 {
			lo := max(j.NumBlocks/opts.VaryBlocks, 1)
			j.NumBlocks = lo + rng.Intn(j.NumBlocks-lo+1)
		}
		jobs[i] = j
		if opts.MeanInterArrival > 0 {
			at += rng.Exponential(opts.MeanInterArrival)
		}
	}
	return jobs, nil
}
