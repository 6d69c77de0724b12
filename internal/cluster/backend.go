package cluster

import (
	"fmt"

	"degradedfirst/internal/minimr"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// clusterBackend implements runtime.Backend and runtime.AsyncBackend by
// turning each task's work into RPCs against worker processes. Virtual
// costs stay exactly the in-process engine's (calibrated per-task times,
// planned transfers through the network model); the real bytes move
// between workers. All methods run on the simulation goroutine; only the
// run-map dispatch goroutines live outside it, and they communicate
// solely through each future's buffered channel.
type clusterBackend struct {
	*runtime.Healer // the store and input planner; repair.go overrides CommitRepair
	m               *Master
	jobs            []minimr.Job
	outputs         []map[string]string
}

var (
	_ runtime.Backend      = (*clusterBackend)(nil)
	_ runtime.AsyncBackend = (*clusterBackend)(nil)
)

// mapOutcome is what Execute's output payload, a chan mapOutcome,
// resolves to when the worker's run-map RPC returns. The channel is
// buffered so an abandoned one (its task requeued after a failure) never
// blocks the dispatch goroutine.
type mapOutcome struct {
	sizes  []float64        // per-reducer partition bytes
	output minimr.RecordBuf // a map-only job's output
	err    error
}

// mapDone is the resolved map output after AwaitOutput, and every one
// of its shuffle chunks' Data payload: which worker holds the task's
// partitions and how big each is. Deliver turns it into a fetch-chunk
// RPC.
type mapDone struct {
	node  topology.NodeID
	addr  string
	task  int
	sizes []float64
}

func newClusterBackend(m *Master, h *minimr.Harness, jobs []minimr.Job) *clusterBackend {
	b := &clusterBackend{Healer: h.Healer, m: m, jobs: jobs}
	for range jobs {
		b.outputs = append(b.outputs, make(map[string]string))
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

// AwaitOutput implements runtime.AsyncBackend: block until the worker's
// map finished. Map-only jobs merge their output here; jobs with
// reducers resolve to the partition directory.
func (b *clusterBackend) AwaitOutput(job, task int, node topology.NodeID, output any) (any, error) {
	o := <-output.(chan mapOutcome)
	if o.err != nil {
		return nil, o.err
	}
	if b.jobs[job].NumReducers == 0 {
		if err := o.output.MergeInto(b.outputs[job]); err != nil {
			return nil, fmt.Errorf("cluster: map output of job %d task %d from node %d: %w", job, task, node, err)
		}
		return &mapDone{node: node}, nil
	}
	return &mapDone{node: node, addr: b.m.workerAddr(node), task: task, sizes: o.sizes}, nil
}

// Partitions implements runtime.Backend: one chunk per reducer, sized by
// the worker's real partition bytes, pointing at the worker holding the
// records.
func (b *clusterBackend) Partitions(job, task int, output any) []runtime.Chunk {
	d := output.(*mapDone)
	chunks := make([]runtime.Chunk, b.jobs[job].NumReducers)
	for r := range chunks {
		var bytes float64
		if r < len(d.sizes) {
			bytes = d.sizes[r]
		}
		chunks[r] = runtime.Chunk{Bytes: bytes, Data: d}
	}
	return chunks
}

// Deliver implements runtime.Backend: tell the reducer's worker to pull
// the partition from the mapper's worker. A dead mapper surfaces as
// *runtime.DeadNodeError, which marks the chunk undelivered and
// re-executes the lost map task.
func (b *clusterBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	src := c.Data.(*mapDone)
	_, err := b.m.callWorker(node, "fetch-chunk", &chunkFetchReq{
		Job: job, Reducer: reducer, MapTask: src.task, Node: int(src.node), Addr: src.addr,
	}, nil)
	return err
}

// StartReduce implements runtime.Backend: calibrated from the real
// shuffle volume, as in-process. The reduce itself runs in AwaitReduce.
func (b *clusterBackend) StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	return b.jobs[job].ReduceCost.Seconds(receivedBytes) * b.speed(node)
}

// ReduceReset implements runtime.Backend. On the wire it is a no-op: a
// restarted reducer re-fetches every partition deterministically, and a
// re-fetch overwrites any stale chunk a worker still buffers, so there
// is no remote state to clear.
func (b *clusterBackend) ReduceReset(job, reducer int) {}

// AwaitReduce implements runtime.AsyncBackend: run the real reduce on
// the reducer's worker at its virtual completion instant and merge its
// output — the response payload — into the job output.
func (b *clusterBackend) AwaitReduce(job, reducer int, node topology.NodeID) error {
	out, err := b.m.callWorker(node, "run-reduce", &reduceReq{Job: job, Reducer: reducer}, nil)
	if err != nil {
		return err
	}
	if err := minimr.RecordBuf(out).MergeInto(b.outputs[job]); err != nil {
		return fmt.Errorf("cluster: output of job %d reducer %d from node %d: %w", job, reducer, node, err)
	}
	return nil
}
