package minimr

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// Run executes the jobs over the (already-populated, possibly
// failure-injected) DFS and returns the report. The DFS's cluster provides
// topology, slots, and failure state; Run does not mutate the failure
// state itself — inject failures before calling (as the paper does by
// killing a slave before submitting jobs). The heartbeat-driven master
// loop is the shared cluster runtime, driven here by a real-bytes backend
// that reads blocks, reconstructs lost ones, and runs the real map and
// reduce functions.
func Run(fs *dfs.FS, opts Options, jobs []Job) (*Report, error) {
	return RunContext(context.Background(), fs, opts, jobs)
}

// RunContext is Run with cancellation: ctx aborts the run at the next
// heartbeat.
func RunContext(ctx context.Context, fs *dfs.FS, opts Options, jobs []Job) (*Report, error) {
	h, err := NewHarness("minimr", fs, opts, jobs)
	if err != nil {
		return nil, err
	}
	backend := newRealBackend(h, jobs)
	return h.Run(ctx, backend, backend.outputs)
}

func newRealBackend(h *Harness, jobs []Job) *realBackend {
	backend := &realBackend{Healer: h.Healer, jobs: jobs}
	for i := range jobs {
		backend.bufs = append(backend.bufs, make([][]RecordBuf, jobs[i].NumReducers))
		backend.outputs = append(backend.outputs, make(map[string]string))
	}
	return backend
}

// realBackend is the real-bytes runtime backend: map inputs are read (or
// decoded) from the DFS, the real map and reduce functions run over real
// records, and task costs are calibrated from the processed byte counts.
type realBackend struct {
	*runtime.Healer // the store and the input planner
	jobs            []Job
	// bufs[job][reducer] lists, in delivery order, the map-output
	// buffers the shuffle delivered; they stay owned by their map tasks.
	bufs    [][][]RecordBuf
	outputs []map[string]string
}

var _ runtime.Backend = (*realBackend)(nil)

func (b *realBackend) speed(id topology.NodeID) float64 {
	return b.FS.Cluster().Node(id).SpeedFactor
}

// PlanInput implements runtime.Backend: the Healer plans the transfers,
// and the payload is the block itself, read from its holder or decoded
// for real from the degraded read's planned primaries. Under the virtual
// clock the spares only shape timing: any k survivors of a Reed-Solomon
// stripe decode identical bytes.
func (b *realBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget) (runtime.InputPlan, error) {
	plan, err := b.Healer.PlanInput(job, task, class, node, spares)
	if err != nil {
		return plan, err
	}
	name, block := b.jobs[job].Input, b.TaskBlock(task)
	if class == sched.ClassDegraded {
		plan.Input, err = b.FS.DecodeFrom(name, block, plan.Sources[:len(plan.Sources)-plan.Spares])
	} else {
		plan.Input, err = b.FS.ReadBlock(name, block)
	}
	if err != nil {
		return plan, fmt.Errorf("minimr: reading %v: %w", block, err)
	}
	return plan, nil
}

// Execute implements runtime.Backend: run the real map function,
// partition its output into one chunk per reducer, and charge the
// calibrated CPU time. A map-only job's map output is the job output.
func (b *realBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	js := &b.jobs[job]
	data := input.([]byte)
	dur := js.MapCost.Seconds(float64(len(data))) * b.speed(node)
	parts, sizes := MapBlock(js, data)
	if js.NumReducers == 0 {
		if err := parts[0].MergeInto(b.outputs[job]); err != nil {
			panic(fmt.Sprintf("minimr: map output of job %d task %d: %v", job, task, err))
		}
		return dur, nil
	}
	chunks := make([]runtime.Chunk, len(parts))
	for i, p := range parts {
		chunks[i] = runtime.Chunk{Bytes: sizes[i], Data: p}
	}
	return dur, chunks
}

// Partitions implements runtime.Backend: Execute already cut the chunks.
func (b *realBackend) Partitions(job, task int, output any) []runtime.Chunk {
	return output.([]runtime.Chunk)
}

// Deliver implements runtime.Backend: keep a reference to the received
// buffer for the reduce phase.
func (b *realBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	buf, ok := c.Data.(RecordBuf)
	if !ok {
		return fmt.Errorf("minimr: chunk for job %d reducer %d carries %T, want a record buffer", job, reducer, c.Data)
	}
	b.bufs[job][reducer] = append(b.bufs[job][reducer], buf)
	return nil
}

// ReduceDuration implements runtime.Backend: calibrated from the real
// shuffle volume received.
func (b *realBackend) ReduceDuration(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	return b.jobs[job].ReduceCost.Seconds(receivedBytes) * b.speed(node)
}

// ReduceReset implements runtime.Backend: drop the records buffered on
// the failed node; the restarted reducer re-fetches everything.
func (b *realBackend) ReduceReset(job, reducer int) {
	b.bufs[job][reducer] = nil
}

// ReduceFinish implements runtime.Backend: run the real reduce function
// over the received records and merge its output into the job output.
func (b *realBackend) ReduceFinish(job, reducer int) {
	out := b.outputs[job]
	err := ReduceBufs(b.jobs[job].Reduce, b.bufs[job][reducer], func(k, v string) { out[k] = v })
	if err != nil {
		// The buffers never left this process; MapBlock packed them.
		panic(fmt.Sprintf("minimr: job %d reducer %d: %v", job, reducer, err))
	}
}
