package minimr

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"

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
	defer backend.stop()
	return h.Run(ctx, backend, backend.outputs)
}

// newRealBackend starts the backend's lanes; stop ends them. A lane's
// queue holds one task per slot of its kind, as many as can run at once,
// so the simulation goroutine waits on a send only behind work that a
// requeue or a reset abandoned.
func newRealBackend(h *Harness, jobs []Job) *realBackend {
	cluster := h.Healer.FS.Cluster()
	backend := &realBackend{Healer: h.Healer, jobs: jobs,
		maps:    newLane(goruntime.GOMAXPROCS(0), cluster.TotalMapSlots()),
		reduces: newLane(1, cluster.TotalReduceSlots())}
	for i := range jobs {
		backend.bufs = append(backend.bufs, make([][]RecordBuf, jobs[i].NumReducers))
		backend.reducing = append(backend.reducing, make([]chan reduceOutcome, jobs[i].NumReducers))
		backend.outputs = append(backend.outputs, make(map[string]string))
	}
	return backend
}

// realBackend is the real-bytes runtime backend: map inputs are read (or
// decoded) from the DFS, the real map and reduce functions run over real
// records, and task costs are calibrated from the processed byte counts.
//
// Reading and decoding stay on the simulation goroutine, beside the
// repairs that change the store. The map and reduce functions, which
// only read their input, run on two lanes: maps on GOMAXPROCS workers,
// reduces on one. The reduce lane groups every reducer's records in the
// one grouping it owns (grouped), reused from reducer to reducer. It
// stays one wide because a wider lane holds more reducers' shuffles and
// groupings live at once, which costs more peak memory than its speed
// is worth (DESIGN.md §9). Each task's result comes back through a
// future the runtime awaits at the task's virtual completion instant,
// and is merged into the job output there, so the output, the schedule
// and the trace are those of a serial run.
type realBackend struct {
	*runtime.Healer // the store and the input planner
	jobs            []Job
	// bufs[job][reducer] lists, in delivery order, the map-output
	// buffers the shuffle delivered until the reducer starts; they stay
	// owned by their map tasks.
	bufs [][][]RecordBuf
	// reducing[job][reducer] is the future of a started reduce.
	reducing [][]chan reduceOutcome
	outputs  []map[string]string

	maps, reduces *lane
	// grouped is the reduce lane's grouping, reused for every reducer;
	// only the lane's one goroutine touches it.
	grouped grouping
}

var _ runtime.Backend = (*realBackend)(nil)

// mapOutcome is what Execute's future resolves to: the shuffle chunks of
// a job with reducers, or a map-only job's output.
type mapOutcome struct {
	chunks []runtime.Chunk
	output RecordBuf
	err    error
}

// reduceOutcome is what StartReduce's future resolves to: the reducer's
// output records in emit order.
type reduceOutcome struct {
	records []record
	err     error
}

type record struct{ key, value string }

// stop waits for the lanes' queued work, which a failed or cancelled run
// may have left, and for their goroutines to exit.
func (b *realBackend) stop() {
	b.maps.stop()
	b.reduces.stop()
}

// PlanInput implements runtime.Backend: the Healer plans the transfers,
// and the payload is the block itself, read from its holder or decoded
// for real from the degraded read's planned primaries. Under the virtual
// clock the spares only shape timing: any k survivors of a Reed-Solomon
// stripe decode identical bytes.
func (b *realBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget, plan *runtime.InputPlan) error {
	if err := b.Healer.PlanInput(job, task, class, node, spares, plan); err != nil {
		return err
	}
	name, block := b.jobs[job].Input, b.TaskBlock(task)
	var err error
	if class == sched.ClassDegraded {
		plan.Input, err = b.FS.DecodeFrom(name, block, plan.Sources[:len(plan.Sources)-plan.Spares])
	} else {
		plan.Input, err = b.FS.ReadBlock(name, block)
	}
	if err != nil {
		return fmt.Errorf("minimr: reading %v: %w", block, err)
	}
	return nil
}

// Execute implements runtime.Backend: queue the real map function and
// the partitioning of its output on the map lane, and charge the
// calibrated CPU time. The pending payload is the future AwaitOutput
// resolves.
func (b *realBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	js := &b.jobs[job]
	data := input.([]byte)
	fut := make(chan mapOutcome, 1) // buffered: a requeued task's is never read
	b.maps.work <- func() {
		var o mapOutcome
		o.err = guard(js, "map", task, func() error {
			o.chunks, o.output = mapTask(js, data)
			return nil
		})
		fut <- o
	}
	return js.MapCost.Seconds(float64(len(data))), fut
}

// mapTask maps one block and cuts its output into one chunk per reducer;
// a map-only job's output comes back whole.
func mapTask(js *Job, data []byte) ([]runtime.Chunk, RecordBuf) {
	parts, sizes := MapBlock(js, data)
	if js.NumReducers == 0 {
		return nil, parts[0]
	}
	chunks := make([]runtime.Chunk, len(parts))
	for i, p := range parts {
		chunks[i] = runtime.Chunk{Bytes: sizes[i], Data: p}
	}
	return chunks, nil
}

// AwaitOutput implements runtime.Backend: wait for the map lane, which
// already cut the chunks. A map-only job's output merges into the job
// output here, in completion order.
func (b *realBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	o := <-pending.(chan mapOutcome)
	if o.err != nil {
		return nil, o.err
	}
	if b.jobs[job].NumReducers == 0 {
		return nil, o.output.MergeInto(b.outputs[job])
	}
	return o.chunks, nil
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

// StartReduce implements runtime.Backend: hand the received buffers to
// the reduce lane, and charge a time calibrated from the real shuffle
// volume received.
func (b *realBackend) StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	js := &b.jobs[job]
	bufs := b.bufs[job][reducer]
	b.bufs[job][reducer] = nil
	fut := make(chan reduceOutcome, 1) // buffered: a reset reducer's is never read
	b.reducing[job][reducer] = fut
	b.reduces.work <- func() {
		var o reduceOutcome
		o.err = guard(js, "reducer", reducer, func() (err error) {
			o.records, err = reduceTask(&b.grouped, js, bufs)
			return err
		})
		fut <- o
	}
	return js.ReduceCost.Seconds(receivedBytes)
}

// reduceTask groups one reducer's buffers in g, which it reuses, and
// reduces them into records in emit order.
func reduceTask(g *grouping, js *Job, bufs []RecordBuf) ([]record, error) {
	if err := g.group(bufs); err != nil {
		return nil, err
	}
	records := make([]record, 0, len(g.keys)) // one record per key is the common case
	g.reduce(js.Reduce, func(k, v string) { records = append(records, record{k, v}) })
	return records, nil
}

// ReduceReset implements runtime.Backend: drop the records buffered on
// the failed node and any reduce already started over them; the
// restarted reducer re-fetches everything.
func (b *realBackend) ReduceReset(job, reducer int) {
	b.bufs[job][reducer] = nil
	b.reducing[job][reducer] = nil
}

// AwaitReduce implements runtime.Backend: wait for the reduce lane
// and merge the reducer's output into the job output, in completion
// order.
func (b *realBackend) AwaitReduce(job, reducer int, node topology.NodeID) error {
	o := <-b.reducing[job][reducer]
	b.reducing[job][reducer] = nil
	if o.err != nil {
		return o.err
	}
	out := b.outputs[job]
	if len(out) == 0 {
		// The reducers split the keys by hash, so the first output to
		// arrive sizes the job's map for all of them.
		out = make(map[string]string, len(o.records)*b.jobs[job].NumReducers)
		b.outputs[job] = out
	}
	for _, r := range o.records {
		out[r.key] = r.value
	}
	return nil
}

// guard runs one task's work on a lane, returning its error, and a panic
// in the job's own map or reduce function as an error too, so that it
// fails the run rather than the process.
func guard(js *Job, kind string, task int, work func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("minimr: job %q %s %d panicked: %v", js.Name, kind, task, p)
		}
	}()
	return work()
}

// lane runs work off the simulation goroutine: a fixed set of goroutines
// taking funcs from one FIFO queue, depth funcs deep before a send waits.
type lane struct {
	work chan func()
	done sync.WaitGroup
}

func newLane(workers, depth int) *lane {
	l := &lane{work: make(chan func(), depth)}
	l.done.Add(workers)
	for range workers {
		go func() {
			defer l.done.Done()
			for fn := range l.work {
				fn()
			}
		}()
	}
	return l
}

// stop runs what is queued and returns once every goroutine has exited.
func (l *lane) stop() {
	close(l.work)
	l.done.Wait()
}
