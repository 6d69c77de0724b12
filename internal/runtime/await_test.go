package runtime_test

import (
	"context"
	"errors"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// The late-fetch scenario: six nodes, six node-local maps, two reducers,
// and chunks that take a virtual second each over a 1 MB/s link. Its
// backend accepts every chunk at delivery, as the TCP cluster does, and
// finds out only when a reduce is awaited that a fetch from a mapper
// failed.
const (
	lateNodes     = 6
	lateReducers  = 2
	lateMapTime   = 5.0
	lateReduceDur = 10.0
	lateChunk     = 1e6
	// lateLimit is a virtual time the scenario never reaches. A run still
	// going then has stranded its job, and is cancelled rather than left
	// heartbeating, and tracing, to the runtime's own limit.
	lateLimit = 1000.0
)

// lateFetchBackend is a backend whose AwaitReduce reports reducer 0's
// first reduce as failed on two fetches from the dead mapper victim: the
// cluster's names a mapper once per failed fetch.
type lateFetchBackend struct {
	*hedgeBackend
	victim   topology.NodeID // < 0: every reduce succeeds
	reported bool
}

func (b *lateFetchBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares runtime.SpareBudget) (runtime.InputPlan, error) {
	return runtime.InputPlan{}, nil
}

func (b *lateFetchBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	return lateMapTime, nil
}

func (b *lateFetchBackend) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	chunks := make([]runtime.Chunk, lateReducers)
	for i := range chunks {
		chunks[i].Bytes = lateChunk
	}
	return chunks, nil
}

func (b *lateFetchBackend) StartReduce(job, reducer int, node topology.NodeID, bytes float64) float64 {
	return lateReduceDur
}

func (b *lateFetchBackend) AwaitReduce(job, reducer int, node topology.NodeID) error {
	if b.victim < 0 || reducer != 0 || b.reported {
		return nil
	}
	b.reported = true
	return &runtime.DeadNodeError{Nodes: []topology.NodeID{b.victim, b.victim}}
}

// cancelAfter records a run's trace and cancels the run at its first
// event past a virtual time.
type cancelAfter struct {
	trace.Memory
	at     float64
	cancel context.CancelFunc
}

func (c *cancelAfter) Emit(e trace.Event) {
	if e.T > c.at {
		c.cancel()
	}
	c.Memory.Emit(e)
}

// runLateFetch runs the scenario; poll is the PollFailures hook.
func runLateFetch(t *testing.T, victim topology.NodeID, poll func(float64) []topology.NodeID) []trace.Event {
	t.Helper()
	events, err := runLateScenario(func(cluster *topology.Cluster) runtime.Backend {
		return &lateFetchBackend{hedgeBackend: &hedgeBackend{cluster: cluster}, victim: victim}
	}, poll)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return events
}

// runLateScenario runs the late-fetch scenario's cluster and job on the
// backend newBackend returns, and returns the trace and Run's error.
func runLateScenario(newBackend func(*topology.Cluster) runtime.Backend, poll func(float64) []topology.NodeID) ([]trace.Event, error) {
	cluster := topology.MustNew(topology.Config{
		Nodes: lateNodes, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
	})
	tasks := make([]sched.TaskSpec, lateNodes)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := &cancelAfter{at: lateLimit, cancel: cancel}
	_, err := runtime.Run(runtime.Params{
		Name:    "late-fetch",
		Ctx:     ctx,
		Cluster: cluster,
		Options: runtime.Options{
			NodeBps:           lateChunk,
			HeartbeatInterval: 1,
			Trace:             mem,
		},
		PollFailures: poll,
	}, newBackend(cluster), []runtime.JobSpec{{Name: "j", Tasks: tasks, NumReducers: lateReducers}})
	return mem.Events(), err
}

// deliverFails is the late-fetch scenario's backend with a Deliver that
// always returns err.
type deliverFails struct {
	*lateFetchBackend
	err error
}

func (b *deliverFails) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	return b.err
}

// TestDeliverErrorAbortsRun pins the Deliver contract: any error it
// returns, a *DeadNodeError included, aborts the run with that error, and
// no job finishes.
func TestDeliverErrorAbortsRun(t *testing.T) {
	for _, want := range []error{
		errors.New("deliver: chunk rejected"),
		&runtime.DeadNodeError{Nodes: []topology.NodeID{1}},
	} {
		events, err := runLateScenario(func(cluster *topology.Cluster) runtime.Backend {
			return &deliverFails{lateFetchBackend: &lateFetchBackend{hedgeBackend: &hedgeBackend{cluster: cluster}, victim: -1}, err: want}
		}, nil)
		if err != want {
			t.Errorf("Deliver returned %v: Run returned %v", want, err)
		}
		if n := len(filterType(events, trace.EvJobFinish)); n != 0 {
			t.Errorf("Deliver returned %v: %d jobs finished, want 0", want, n)
		}
		if n := len(filterType(events, trace.EvNodeFail)); n != 0 {
			t.Errorf("Deliver returned %v: %d node-fail events, want 0", want, n)
		}
	}
}

// TestAsyncReduceFailureReowesLateFetch: a reduce awaited as failed on a
// fetch from a dead mapper restarts, and the mapper's output, which every
// reducer had already counted as delivered, is made again — whether the
// mapper is first reported dead by that reduce or was failed earlier by a
// heartbeat deadline. The job finishes, the victim fails once, and every
// map and reduce launch is closed by a finish, a requeue or a reset.
func TestAsyncReduceFailureReowesLateFetch(t *testing.T) {
	// A failure-free run finds the reducers' nodes and start times, and a
	// mapper running no reducer to be the victim.
	base := runLateFetch(t, -1, nil)
	reduceNode := map[int]bool{}
	lastStart := -1.0
	for _, e := range filterType(base, trace.EvReduceStart) {
		reduceNode[e.Node] = true
		lastStart = max(lastStart, e.T)
	}
	victim, victimTask := topology.NodeID(-1), -1
	for _, e := range filterType(base, trace.EvTaskFinish) {
		if !reduceNode[e.Node] {
			victim, victimTask = topology.NodeID(e.Node), e.Task
			break
		}
	}
	if len(reduceNode) != lateReducers || victim < 0 {
		t.Fatalf("reducers on %v, victim %d: scenario is vacuous", reduceNode, victim)
	}

	for _, tc := range []struct {
		name string
		poll func(float64) []topology.NodeID
	}{
		{"reported by the reduce", nil},
		// Every reducer holds the victim's chunk when the deadline fails
		// it, so nothing is owed then.
		{"failed earlier by a heartbeat deadline", killAfter(lastStart, victim)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := runLateFetch(t, victim, tc.poll)
			if n := len(filterType(events, trace.EvJobFinish)); n != 1 {
				t.Fatalf("%d jobs finished, want 1", n)
			}
			if fails := filterType(events, trace.EvNodeFail); len(fails) != 1 || fails[0].Node != int(victim) {
				t.Errorf("node-fail events %v, want one for node %d", fails, victim)
			}
			mapLaunches, reduceLaunches := map[int]int{}, map[int]int{}
			mapOpen, reduceOpen := map[int]bool{}, map[int]bool{}
			for _, e := range events {
				switch e.Type {
				case trace.EvTaskLaunch:
					if mapOpen[e.Task] {
						t.Fatalf("map %d relaunched at %v while still open", e.Task, e.T)
					}
					mapOpen[e.Task] = true
					mapLaunches[e.Task]++
				case trace.EvTaskFinish, trace.EvTaskRequeue:
					mapOpen[e.Task] = false
				case trace.EvReduceLaunch:
					if reduceOpen[e.Task] {
						t.Fatalf("reducer %d relaunched at %v while still open", e.Task, e.T)
					}
					reduceOpen[e.Task] = true
					reduceLaunches[e.Task]++
				case trace.EvReduceFinish, trace.EvReduceReset:
					reduceOpen[e.Task] = false
				}
			}
			for task, open := range mapOpen {
				if open {
					t.Errorf("map %d launched and never finished", task)
				}
			}
			for r, open := range reduceOpen {
				if open {
					t.Errorf("reducer %d launched and never finished", r)
				}
			}
			if mapLaunches[victimTask] != 2 {
				t.Errorf("the victim's map %d launched %d times, want 2", victimTask, mapLaunches[victimTask])
			}
			if reduceLaunches[0] != 2 || reduceLaunches[1] != 1 {
				t.Errorf("reducer launches %v, want 2 for reducer 0 and 1 for reducer 1", reduceLaunches)
			}
		})
	}
}

// awaitCounter numbers every Execute payload and counts what the runtime
// awaits: AwaitOutput per payload, and AwaitReduce calls.
type awaitCounter struct {
	*lateFetchBackend
	executed     int
	awaited      map[int]int
	reduceAwaits int
}

func (b *awaitCounter) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	b.executed++
	return lateMapTime, b.executed
}

func (b *awaitCounter) AwaitOutput(job, task int, node topology.NodeID, pending any) ([]runtime.Chunk, error) {
	b.awaited[pending.(int)]++
	return b.lateFetchBackend.AwaitOutput(job, task, node, pending)
}

func (b *awaitCounter) AwaitReduce(job, reducer int, node topology.NodeID) error {
	b.reduceAwaits++
	return nil
}

// runAwaitCounter runs twelve maps and the late-fetch scenario's reducers,
// failing victim (if not negative) at virtual time failAt.
func runAwaitCounter(t *testing.T, victim topology.NodeID, failAt float64) (*awaitCounter, []trace.Event) {
	t.Helper()
	cluster := topology.MustNew(topology.Config{
		Nodes: lateNodes, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
	})
	tasks := make([]sched.TaskSpec, 2*lateNodes)
	for i := range tasks {
		tasks[i] = sched.TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(i % lateNodes)}
	}
	p := runtime.Params{
		Name:    "await-counter",
		Cluster: cluster,
		Options: runtime.Options{NodeBps: lateChunk, HeartbeatInterval: 1},
		FailAt:  failAt,
	}
	if victim >= 0 {
		p.ToFail = []topology.NodeID{victim}
	}
	var mem trace.Memory
	p.Trace = &mem
	b := &awaitCounter{
		lateFetchBackend: &lateFetchBackend{hedgeBackend: &hedgeBackend{cluster: cluster}, victim: -1},
		awaited:          map[int]int{},
	}
	if _, err := runtime.Run(p, b, []runtime.JobSpec{{Name: "j", Tasks: tasks, NumReducers: lateReducers}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return b, mem.Events()
}

// TestAwaitContract pins the one engine contract under a mid-map failure
// that requeues running maps and resets a launched reducer: the payload
// of every map attempt that completes reaches AwaitOutput exactly once,
// no requeued attempt's payload does, and AwaitReduce runs once per
// reduce-finish.
func TestAwaitContract(t *testing.T) {
	// A failure-free run finds a node running both a reducer and a first
	// map, and a failure instant halfway through that map.
	_, base := runAwaitCounter(t, -1, 0)
	reducerOn := map[int]bool{}
	for _, e := range filterType(base, trace.EvReduceLaunch) {
		reducerOn[e.Node] = true
	}
	victim, failAt := topology.NodeID(-1), 0.0
	for _, e := range filterType(base, trace.EvMapStart) {
		if reducerOn[e.Node] {
			victim, failAt = topology.NodeID(e.Node), e.T+lateMapTime/2
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node runs both a map and a reducer: scenario is vacuous")
	}

	b, events := runAwaitCounter(t, victim, failAt)
	// The runtime calls Execute right after it emits map-start, so the
	// n-th map-start is payload n; its attempt ends in a finish or a
	// requeue.
	payload, open := 0, map[int]int{}
	var completed, requeued []int
	for _, e := range events {
		switch e.Type {
		case trace.EvMapStart:
			payload++
			open[e.Task] = payload
		case trace.EvTaskFinish:
			completed = append(completed, open[e.Task])
			delete(open, e.Task)
		case trace.EvTaskRequeue:
			if id, ok := open[e.Task]; ok {
				requeued = append(requeued, id)
				delete(open, e.Task)
			}
		}
	}
	if payload != b.executed || len(open) != 0 {
		t.Fatalf("%d map-starts for %d Execute calls, %d attempts left open", payload, b.executed, len(open))
	}
	if len(requeued) == 0 || len(filterType(events, trace.EvReduceReset)) == 0 {
		t.Fatalf("%d requeued attempts, %d reducer resets: scenario is vacuous",
			len(requeued), len(filterType(events, trace.EvReduceReset)))
	}
	for _, id := range completed {
		if b.awaited[id] != 1 {
			t.Errorf("completed payload %d awaited %d times, want 1", id, b.awaited[id])
		}
	}
	for _, id := range requeued {
		if b.awaited[id] != 0 {
			t.Errorf("requeued payload %d awaited %d times, want 0", id, b.awaited[id])
		}
	}
	if finishes := len(filterType(events, trace.EvReduceFinish)); b.reduceAwaits != finishes {
		t.Errorf("AwaitReduce ran %d times for %d reduce-finishes", b.reduceAwaits, finishes)
	}
}
