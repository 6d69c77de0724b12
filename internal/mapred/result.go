package mapred

import (
	"degradedfirst/internal/runtime"
)

// The result model lives in the shared cluster runtime; these aliases keep
// the mapred API (and every figure runner built on it) unchanged.

// TaskRecord captures one map task's life cycle.
type TaskRecord = runtime.TaskRecord

// JobResult aggregates one job's outcome.
type JobResult = runtime.JobResult

// Result is the outcome of one simulation run.
type Result = runtime.Result
