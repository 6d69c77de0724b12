package cluster

import (
	"cmp"
	"fmt"
	"slices"

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
// (run-map) and a reduce (run-reduce, which pulls the reducer's shuffle
// input first) each run on a goroutine of their own, which talks to the
// simulation goroutine solely through its future's buffered channel.
type clusterBackend struct {
	*runtime.Healer // the store and input planner; repair.go overrides CommitRepair
	m               *Master
	jobs            []minimr.Job
	outputs         []map[string]string
	// delivered[job][reducer] are the chunks Deliver accepted for the
	// reducer since its last reset, and reducing[job][reducer] the future
	// of its started reduce.
	delivered [][][]*mapDone
	reducing  [][]chan outcome
}

var _ runtime.Backend = (*clusterBackend)(nil)

// outcome is what a run-map or run-reduce future resolves to. Its channel
// is buffered, so one a requeue or reset abandons never blocks.
type outcome struct {
	sizes  []float64        // a map's per-reducer partition bytes
	output minimr.RecordBuf // a reduce's output
	err    error
}

// mapDone is every shuffle chunk's Data payload: which worker holds the
// map task's partitions. StartReduce lists it in its run-reduce request.
type mapDone struct {
	node topology.NodeID
	task int
}

func newClusterBackend(m *Master, h *minimr.Harness, jobs []minimr.Job) *clusterBackend {
	b := &clusterBackend{Healer: h.Healer, m: m, jobs: jobs}
	for _, js := range jobs {
		b.outputs = append(b.outputs, make(map[string]string))
		b.delivered = append(b.delivered, make([][]*mapDone, js.NumReducers))
		b.reducing = append(b.reducing, make([]chan outcome, js.NumReducers))
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
func (b *clusterBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget, plan *runtime.InputPlan) error {
	if err := b.Healer.PlanInput(job, task, class, node, spares, plan); err != nil {
		return err
	}
	block := b.TaskBlock(task)
	req := &mapReq{Job: job, Task: task, File: b.jobs[job].Input, Stripe: block.Stripe, Index: block.Index,
		Degraded: class == sched.ClassDegraded}
	if plan.Spares > 0 {
		req.Need = len(plan.Sources) - plan.Spares
	}
	for _, src := range plan.Sources {
		req.Fetch = append(req.Fetch, fetchSpec{Node: int(src.Node), Addr: b.m.workerAddr(src.Node), Stripe: block.Stripe, Index: src.Index})
	}
	plan.Input = req
	return nil
}

// Execute implements runtime.Backend: dispatch the real map work to the
// node's worker and charge the calibrated virtual CPU time. The RPC runs
// on its own goroutine; AwaitOutput collects it at the task's virtual
// completion instant.
func (b *clusterBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	req := input.(*mapReq)
	fut := make(chan outcome, 1)
	go func() {
		var o outcome
		_, o.err = b.m.callWorker(node, "run-map", req, &o.sizes)
		fut <- o
	}()
	dur := b.jobs[job].MapCost.Seconds(float64(b.m.fs.BlockSize())) * b.speed(node)
	return dur, fut
}

// AwaitOutput implements runtime.Backend: block until the worker's map
// finished. Every cluster job has reducers (BuildJob's kinds all reduce),
// so the map yields one chunk per reducer, sized by the worker's real
// partition bytes and pointing at the worker holding the records.
func (b *clusterBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	o := <-pending.(chan outcome)
	if o.err != nil {
		return nil, o.err
	}
	d := &mapDone{node: node, task: task}
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

// Deliver implements runtime.Backend: note which worker holds the chunk.
// The master reads the wire only at virtual instants, so its bytes wait
// for StartReduce, to cross in one pull per mapper host.
func (b *clusterBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	b.delivered[job][reducer] = append(b.delivered[job][reducer], c.Data.(*mapDone))
	return nil
}

// StartReduce implements runtime.Backend: calibrated from the real
// shuffle volume, as in-process. A goroutine of its own sends the
// reducer's worker one run-reduce listing, per mapper host in node order,
// the map tasks to pull; AwaitReduce collects its future.
func (b *clusterBackend) StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	done := b.delivered[job][reducer]
	b.delivered[job][reducer] = nil
	slices.SortFunc(done, func(x, y *mapDone) int { return cmp.Or(cmp.Compare(x.node, y.node), x.task-y.task) })
	req := &reduceReq{Job: job, Reducer: reducer}
	for i, d := range done {
		if i == 0 || d.node != done[i-1].node {
			req.Hosts = append(req.Hosts, hostPull{Node: int(d.node), Addr: b.m.workerAddr(d.node)})
		}
		req.Hosts[len(req.Hosts)-1].Tasks = append(req.Hosts[len(req.Hosts)-1].Tasks, d.task)
	}
	fut := make(chan outcome, 1)
	b.reducing[job][reducer] = fut
	go func() {
		var o outcome
		o.output, o.err = b.m.callWorker(node, "run-reduce", req, nil)
		fut <- o
	}()
	return b.jobs[job].ReduceCost.Seconds(receivedBytes) * b.speed(node)
}

// ReduceReset implements runtime.Backend: drop the reducer's delivered
// chunks and reduce future. Its worker keeps nothing it pulled.
func (b *clusterBackend) ReduceReset(job, reducer int) {
	b.delivered[job][reducer] = nil
	b.reducing[job][reducer] = nil
}

// AwaitReduce implements runtime.Backend: wait for the reducer's pulls
// and reduce, and merge its output — the run-reduce response payload —
// into the job output. Mappers found dead, even since their chunk's
// delivery, come back as one *runtime.DeadNodeError naming them.
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
