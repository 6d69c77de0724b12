package cluster

import (
	"fmt"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/minimr"
)

// JobSpec is a wire-shippable job description. Map and reduce closures
// cannot cross process boundaries, so cluster jobs are named instances
// of the paper's workloads; master and workers instantiate the same
// minimr.Job from the spec, which keeps costs, partitioning, and the
// real functions identical on both sides.
type JobSpec struct {
	// Kind selects the workload: "wordcount", "grep", or "linecount".
	Kind string `json:"kind"`
	// Input is the DFS file to process.
	Input string `json:"input"`
	// Word is Grep's needle; ignored by the other kinds.
	Word string `json:"word,omitempty"`
	// NumReducers is the reduce task count.
	NumReducers int `json:"reducers"`
	// SubmitAt is the virtual submission time.
	SubmitAt float64 `json:"submit_at"`
	// JobMeta (tenant, weight, deadline on the wire) feeds the master's
	// job-level scheduling policies (MasterOptions.Engine.JobSched).
	jobsched.JobMeta
}

// BuildJob instantiates the minimr job a spec names.
func BuildJob(spec JobSpec) (minimr.Job, error) {
	var job minimr.Job
	switch spec.Kind {
	case "wordcount":
		job = minimr.WordCountJob(spec.Input, spec.NumReducers)
	case "grep":
		if spec.Word == "" {
			return minimr.Job{}, fmt.Errorf("cluster: grep job needs a word")
		}
		job = minimr.GrepJob(spec.Input, spec.Word, spec.NumReducers)
	case "linecount":
		job = minimr.LineCountJob(spec.Input, spec.NumReducers)
	default:
		return minimr.Job{}, fmt.Errorf("cluster: unknown job kind %q", spec.Kind)
	}
	job.SubmitAt = spec.SubmitAt
	job.JobMeta = spec.JobMeta
	return job, nil
}

// BuildJobs instantiates every spec, in order.
func BuildJobs(specs []JobSpec) ([]minimr.Job, error) {
	jobs := make([]minimr.Job, len(specs))
	for i, spec := range specs {
		job, err := BuildJob(spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	return jobs, nil
}
