package cluster

import (
	"errors"
	"fmt"

	"degradedfirst/internal/minimr"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// clusterBackend implements runtime.Backend by turning each task's work
// into RPCs against worker processes. Virtual costs stay exactly the
// in-process engine's (calibrated per-task times, planned transfers
// through the network model); the real bytes move between workers. All
// methods run on the simulation goroutine. The RPCs behind a map
// (run-map), a shuffle delivery (fetch-chunk) and a reduce (run-reduce)
// each run on a goroutine of their own, which talks to the simulation
// goroutine solely through its future's buffered channel.
type clusterBackend struct {
	*runtime.Healer // the store and input planner; repair.go overrides CommitRepair
	m               *Master
	jobs            []minimr.Job
	outputs         []map[string]string
	// fetches[job][reducer] are the futures of the fetch-chunk RPCs
	// Deliver started for the reducer since its last reset, and
	// reducing[job][reducer] the future of its started reduce.
	fetches  [][][]chan error
	reducing [][]chan reduceOutcome
}

var _ runtime.Backend = (*clusterBackend)(nil)

// mapOutcome is what Execute's pending payload, a chan mapOutcome,
// resolves to when the worker's run-map RPC returns. The channel is
// buffered so an abandoned one (its task requeued after a failure) never
// blocks the dispatch goroutine.
type mapOutcome struct {
	sizes  []float64        // per-reducer partition bytes
	output minimr.RecordBuf // a map-only job's output
	err    error
}

// mapDone is every shuffle chunk's Data payload: which worker holds the
// map task's partitions. Deliver turns it into a fetch-chunk RPC.
type mapDone struct {
	node topology.NodeID
	addr string
	task int
}

// reduceOutcome is what StartReduce's future resolves to: the reducer's
// packed output, or the first failure of its fetches or of the reduce.
type reduceOutcome struct {
	output minimr.RecordBuf
	err    error
}

func newClusterBackend(m *Master, h *minimr.Harness, jobs []minimr.Job) *clusterBackend {
	b := &clusterBackend{Healer: h.Healer, m: m, jobs: jobs}
	for _, js := range jobs {
		b.outputs = append(b.outputs, make(map[string]string))
		b.fetches = append(b.fetches, make([][]chan error, js.NumReducers))
		b.reducing = append(b.reducing, make([]chan reduceOutcome, js.NumReducers))
	}
	return b
}

func (b *clusterBackend) speed(id topology.NodeID) float64 {
	return b.m.fs.Cluster().Node(id).SpeedFactor
}

// PlanInput implements runtime.Backend: the Healer plans the transfers,
// and the payload is the run-map request telling the worker to fetch
// exactly the planned sources. A degraded read granted spares becomes a
// first-k-wins race on the wire too: Need is the primary count and the
// spares join Fetch, so the worker decodes from whichever k fetches
// finish first and cancels the rest.
func (b *clusterBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget) (runtime.InputPlan, error) {
	plan, err := b.Healer.PlanInput(job, task, class, node, spares)
	if err != nil {
		return plan, err
	}
	block := b.TaskBlock(task)
	req := &mapReq{Job: job, Task: task, File: b.jobs[job].Input, Stripe: block.Stripe, Index: block.Index,
		Degraded: class == sched.ClassDegraded}
	if plan.Spares > 0 {
		req.Need = len(plan.Sources) - plan.Spares
	}
	for _, src := range plan.Sources {
		req.Fetch = append(req.Fetch, b.m.fetchSpec(src.Node, block.Stripe, src.Index))
	}
	plan.Input = req
	return plan, nil
}

// Execute implements runtime.Backend: dispatch the real map work to the
// node's worker and charge the calibrated virtual CPU time. The RPC runs
// on its own goroutine; AwaitOutput collects it at the task's virtual
// completion instant.
func (b *clusterBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	req := input.(*mapReq)
	fut := make(chan mapOutcome, 1)
	go func() {
		var o mapOutcome
		o.output, o.err = b.m.callWorker(node, "run-map", req, &o.sizes)
		fut <- o
	}()
	dur := b.jobs[job].MapCost.Seconds(float64(b.m.fs.BlockSize())) * b.speed(node)
	return dur, fut
}

// AwaitOutput implements runtime.Backend: block until the worker's map
// finished. Map-only jobs merge their output here; a job with reducers
// gets one chunk per reducer, sized by the worker's real partition bytes
// and pointing at the worker holding the records.
func (b *clusterBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	o := <-pending.(chan mapOutcome)
	if o.err != nil {
		return nil, o.err
	}
	if b.jobs[job].NumReducers == 0 {
		if err := o.output.MergeInto(b.outputs[job]); err != nil {
			return nil, fmt.Errorf("cluster: map output of job %d task %d from node %d: %w", job, task, node, err)
		}
		return nil, nil
	}
	d := &mapDone{node: node, addr: b.m.workerAddr(node), task: task}
	chunks := make([]runtime.Chunk, b.jobs[job].NumReducers)
	for r := range chunks {
		var bytes float64
		if r < len(o.sizes) {
			bytes = o.sizes[r]
		}
		chunks[r] = runtime.Chunk{Bytes: bytes, Data: d}
	}
	return chunks, nil
}

// Deliver implements runtime.Backend: start the reducer's worker pulling
// the partition from the mapper's worker, and accept the chunk at once,
// as a Hadoop reducer copies map output on its own. The fetch-chunk RPC
// runs on its own goroutine; the reducer's reduce awaits it, so a failed
// fetch (a dead mapper) comes back from AwaitReduce.
func (b *clusterBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	src := c.Data.(*mapDone)
	req := &chunkFetchReq{Job: job, Reducer: reducer, MapTask: src.task, Node: int(src.node), Addr: src.addr}
	fut := make(chan error, 1) // buffered: a reset reducer's is never read
	go func() {
		_, err := b.m.callWorker(node, "fetch-chunk", req, nil)
		fut <- err
	}()
	b.fetches[job][reducer] = append(b.fetches[job][reducer], fut)
	return nil
}

// StartReduce implements runtime.Backend: calibrated from the real
// shuffle volume, as in-process. A goroutine of its own awaits the
// reducer's fetches and then runs the real reduce on the reducer's
// worker; AwaitReduce collects its future.
func (b *clusterBackend) StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	fetches := b.fetches[job][reducer]
	b.fetches[job][reducer] = nil
	fut := make(chan reduceOutcome, 1) // buffered: a reset reducer's is never read
	b.reducing[job][reducer] = fut
	go func() {
		var o reduceOutcome
		if o.err = awaitFetches(fetches); o.err == nil {
			o.output, o.err = b.m.callWorker(node, "run-reduce", &reduceReq{Job: job, Reducer: reducer}, nil)
		}
		fut <- o
	}()
	return b.jobs[job].ReduceCost.Seconds(receivedBytes) * b.speed(node)
}

// awaitFetches waits for every fetch future. It returns the first error
// that names no dead node, else one *runtime.DeadNodeError naming every
// node the fetches found dead (once per failed fetch), else nil.
func awaitFetches(fetches []chan error) error {
	var dead []topology.NodeID
	var other error
	for _, fut := range fetches {
		err := <-fut
		var dn *runtime.DeadNodeError
		switch {
		case err == nil:
		case errors.As(err, &dn):
			dead = append(dead, dn.Nodes...)
		case other == nil:
			other = err
		}
	}
	if other != nil {
		return other
	}
	if len(dead) > 0 {
		return &runtime.DeadNodeError{Nodes: dead}
	}
	return nil
}

// ReduceReset implements runtime.Backend: drop the reducer's fetch and
// reduce futures. The restarted reducer re-fetches every partition, and
// the worker's reduce consumes what it fetched, so no remote state is
// left to clear.
func (b *clusterBackend) ReduceReset(job, reducer int) {
	b.fetches[job][reducer] = nil
	b.reducing[job][reducer] = nil
}

// AwaitReduce implements runtime.Backend: wait for the reducer's
// fetches and reduce, and merge its output — the run-reduce response
// payload — into the job output. A fetch that failed comes back as the
// *runtime.DeadNodeError naming its mapper.
func (b *clusterBackend) AwaitReduce(job, reducer int, node topology.NodeID) error {
	o := <-b.reducing[job][reducer]
	b.reducing[job][reducer] = nil
	if o.err != nil {
		return o.err
	}
	out := b.outputs[job]
	if len(out) == 0 {
		// As in process: the reducers split the keys by hash, so the
		// first output to arrive sizes the job's map for all of them.
		n := 0
		if o.output.Each(func(_, _ []byte) { n++ }) == nil {
			out = make(map[string]string, n*b.jobs[job].NumReducers)
			b.outputs[job] = out
		}
	}
	if err := o.output.MergeInto(out); err != nil {
		return fmt.Errorf("cluster: output of job %d reducer %d from node %d: %w", job, reducer, node, err)
	}
	return nil
}
