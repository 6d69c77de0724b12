package runtime

import (
	"context"
	"fmt"
	"math"
	"slices"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Params wires a run: the engine-agnostic pieces are built by the caller
// (validated config, cluster, network, scheduler) and the runtime owns
// everything that happens between submission and the last job finishing.
type Params struct {
	// Name prefixes error messages ("mapred", "minimr").
	Name string
	// Ctx cancels the run at the next heartbeat (nil = background).
	Ctx       context.Context
	Engine    *sim.Engine
	Cluster   *topology.Cluster
	Net       *netsim.Net
	Scheduler sched.Scheduler
	// Env must carry Cluster, PerTaskTime and DegradedReadTime; the
	// runtime installs the job queue's eligibility view as Env.Jobs.
	Env *sched.Env

	// Features are the master loop's own settings; Run validates them
	// against Net and Cluster and applies their defaults.
	Features

	// ToFail are failure-injection targets: failed before the run when
	// FailAt <= 0, otherwise at virtual time FailAt.
	FailAt float64
	ToFail []topology.NodeID

	// PollFailures, when set, is drained at every heartbeat: any returned
	// node not already failed is fed into the same failure-recovery path
	// as ToFail. The distributed runtime uses it to surface workers whose
	// real heartbeats missed their deadline.
	PollFailures func() []topology.NodeID

	// Sink receives the run's trace events (nil = no external sink; the
	// internal Result builder always consumes them). Label stamps each
	// event's Run field.
	Sink  trace.Sink
	Label string
}

func (p *Params) name() string {
	if p.Name == "" {
		return "runtime"
	}
	return p.Name
}

// Run drives the master loop over the given jobs until all finish, fail,
// or MaxSimTime passes, and returns the Result rebuilt from the run's
// trace stream.
func Run(p Params, backend Backend, jobs []JobSpec) (*Result, error) {
	if p.Engine == nil || p.Cluster == nil || p.Net == nil || p.Scheduler == nil || p.Env == nil {
		return nil, fmt.Errorf("%s: incomplete runtime params", p.name())
	}
	if backend == nil {
		return nil, fmt.Errorf("%s: nil backend", p.name())
	}
	if p.Ctx == nil {
		p.Ctx = context.Background()
	}
	if err := p.Features.Validate(p.Net.Config(), p.Cluster.Spec()); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}

	st := &state{
		p:         p,
		name:      p.name(),
		backend:   backend,
		eng:       p.Engine,
		cluster:   p.Cluster,
		net:       p.Net,
		scheduler: p.Scheduler,
		env:       p.Env,
		running:   make(map[*sched.Task]*runningMap),
		builder:   NewBuilder(),
	}
	st.async, _ = backend.(AsyncBackend)
	if p.Repair.Active() {
		st.repairMgr = newRepairManager(st)
	}

	numNodes := st.cluster.NumNodes()
	st.slaves = make([]*slaveState, numNodes)
	reduceSlots := 0
	for i := 0; i < numNodes; i++ {
		node := st.cluster.Node(topology.NodeID(i))
		st.slaves[i] = &slaveState{
			freeMap:    node.MapSlots,
			freeReduce: node.ReduceSlots,
		}
		reduceSlots += node.ReduceSlots
	}

	queue, err := jobsched.New(p.JobSched)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}
	st.queue = queue

	st.jobs = make([]*jobState, len(jobs))
	for i := range jobs {
		if err := jobs[i].JobMeta.Validate(); err != nil {
			return nil, fmt.Errorf("%s: job %q: %w", p.name(), jobs[i].Name, err)
		}
		if jobs[i].NumReducers > 0 && reduceSlots == 0 { // or it would heartbeat to MaxSimTime
			return nil, fmt.Errorf("%s: job %q: %d reduce tasks, but the cluster has no reduce slots", p.name(), jobs[i].Name, jobs[i].NumReducers)
		}
		queue.Add(jobs[i].JobMeta, jobs[i].NumReducers)
		js := &jobState{
			idx:     i,
			spec:    jobs[i],
			mapDone: make([]bool, len(jobs[i].Tasks)),
			mapNode: make([]topology.NodeID, len(jobs[i].Tasks)),
			parts:   make([][]Chunk, len(jobs[i].Tasks)),
		}
		if n := jobs[i].NumReducers; n > 0 {
			js.reducers = make([]*reducerState, n)
			for r := 0; r < n; r++ {
				js.reducers[r] = &reducerState{
					job: js,
					idx: r,
					got: make([]bool, len(jobs[i].Tasks)),
				}
			}
			js.pendingShuffle = make([][]pendingChunk, n)
		}
		st.jobs[i] = js
	}

	hooks := netsim.Hooks{
		Start: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferStart)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(e)
		},
		Finish: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferEnd)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(e)
		},
		Cancel: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferCancel)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(e)
		},
	}
	if p.TraceFlowRates {
		hooks.RateChange = func(f *netsim.Flow) {
			e := st.ev(trace.EvFlowRate)
			e.Src, e.Dst, e.N = int(f.Src), int(f.Dst), f.ID
			rate := f.Rate()
			if math.IsInf(rate, 1) {
				rate = -1 // JSON has no +Inf; -1 marks an unlimited allocation
			}
			e.Bytes = rate
			st.emit(e)
		}
	}
	st.net.SetHooks(hooks)

	// Failure injection first so a FailAt event precedes same-time
	// submissions and heartbeats in the engine's tie-breaking order.
	if p.FailAt > 0 {
		toFail := p.ToFail
		st.eng.Schedule(p.FailAt, func() { st.injectFailure(toFail) })
	} else {
		for _, id := range p.ToFail {
			st.cluster.FailNode(id)
		}
	}

	rs := st.ev(trace.EvRunStart)
	rs.Name = st.scheduler.Name()
	st.emit(rs)
	for _, id := range st.cluster.FailedNodes() {
		e := st.ev(trace.EvNodeFail)
		e.Node = int(id)
		st.emit(e)
	}
	if st.repairMgr != nil {
		if failed := st.cluster.FailedNodes(); len(failed) > 0 {
			st.repairMgr.scheduleScan(failed)
		}
	}

	for _, js := range st.jobs {
		js := js
		st.eng.Schedule(js.spec.SubmitAt, func() { st.submitJob(js) })
	}

	// Stagger the first heartbeats across the interval so slaves don't
	// report in lockstep.
	for i := 0; i < numNodes; i++ {
		id := topology.NodeID(i)
		offset := p.HeartbeatInterval * float64(i) / float64(numNodes)
		st.eng.Schedule(offset, func() { st.heartbeat(id) })
	}

	st.eng.Run()

	if st.err != nil {
		return nil, st.err
	}
	if !st.allDone() {
		return nil, fmt.Errorf("%s: drained with %d/%d jobs finished", st.name, st.finished, len(st.jobs))
	}
	if err := st.net.Drained(); err != nil {
		// All jobs claim to be done yet flows remain: a transfer was
		// admitted and then silently starved (never rescheduled).
		return nil, fmt.Errorf("%s: %w", st.name, err)
	}
	st.emit(st.ev(trace.EvRunEnd))
	return st.builder.Result(), nil
}

type slaveState struct {
	freeMap    int
	freeReduce int
	oobPending bool
}

type pendingChunk struct {
	src    topology.NodeID
	mapIdx int
	chunk  Chunk
}

// shuffleRef is one shuffle transfer: a map-output chunk headed for a
// reducer. Its arrived method is the flow's completion callback, and
// failure recovery walks the refs to cancel transfers touching a dead node.
type shuffleRef struct {
	s      *state
	r      *reducerState
	mapIdx int
	src    topology.NodeID
	chunk  Chunk
	flow   *netsim.Flow // set once the transfer starts
}

// arrived delivers the chunk unless the reducer already holds this map's
// output or has finished.
func (ref *shuffleRef) arrived(*netsim.Flow) {
	s, r := ref.s, ref.r
	r.job.shuffleFlowArrived()
	if !r.got[ref.mapIdx] && !r.done {
		if err := s.backend.Deliver(r.job.idx, r.idx, r.node, ref.chunk); err != nil {
			// got stays false so re-execution still considers this output
			// owed to the reducer.
			s.deliverFailure(err)
			return
		}
		r.got[ref.mapIdx] = true
		r.received++
		r.receivedBytes += ref.chunk.Bytes
	}
	s.checkReducer(r)
}

type reducerState struct {
	job      *jobState
	idx      int
	node     topology.NodeID
	launched bool
	started  bool
	done     bool
	// got guards against duplicate shuffle deliveries per map task.
	got           []bool
	received      int
	receivedBytes float64
	procEv        *sim.Event
}

type jobState struct {
	idx       int
	spec      JobSpec
	sj        *sched.Job
	submitted bool
	finishedJ bool

	mapsCompleted int
	// mapDone/mapNode/parts track completed map output for shuffle
	// recovery: output of task i lives on mapNode[i] and splits into
	// parts[i] (one Chunk per reducer). parts[i] is the backend's slice,
	// which may be shared between maps: it is only read, and a requeue
	// drops it by setting parts[i] to nil.
	mapDone []bool
	mapNode []topology.NodeID
	parts   [][]Chunk

	reducers       []*reducerState
	reducersDone   int
	pendingShuffle [][]pendingChunk
	// shuffleFlows lists the shuffle transfers failure recovery may have
	// to cancel, in start order; shuffleArrived counts the finished ones
	// still listed.
	shuffleFlows   []*shuffleRef
	shuffleArrived int

	// repairedHolder overrides task holders for jobs not yet submitted:
	// the background healer rebuilt the task's input block on a new node
	// before the job arrived, so submission classifies against the
	// repaired placement rather than the spec's stale holder.
	repairedHolder map[int]topology.NodeID
}

func (js *jobState) totalMaps() int { return len(js.spec.Tasks) }

// shuffleFlowArrived records one listed shuffle transfer finishing. Once
// finished refs outnumber in-flight ones they are dropped, so the list
// (and through it every finished netsim.Flow) stays proportional to what
// is in flight, at amortised constant cost per flow and without changing
// the order recoverShuffle cancels in.
func (js *jobState) shuffleFlowArrived() {
	js.shuffleArrived++
	if 2*js.shuffleArrived <= len(js.shuffleFlows) {
		return
	}
	js.shuffleFlows = slices.DeleteFunc(js.shuffleFlows, func(ref *shuffleRef) bool { return ref.flow.Finished() })
	js.shuffleArrived = 0
}

// mapOutputAvailable reports whether task i's output can still feed the
// shuffle (completed and its node alive).
func (st *state) mapOutputAvailable(js *jobState, i int) bool {
	return js.mapDone[i] && st.cluster.Alive(js.mapNode[i])
}

type runningMap struct {
	js     *jobState
	task   *sched.Task
	node   topology.NodeID
	flows  []*netsim.Flow
	procEv *sim.Event
	input  any
	output any

	// Input fan-in state: the input is ready at the need-th flow
	// completion (got counts them), and arrived is the one callback every
	// flow reports to. Under an active hedge policy, standby holds
	// unlaunched spare sources for deadline hedges, and hedgeTimers the
	// pending per-flow deadline checks.
	need        int
	got         int
	arrived     func(*netsim.Flow)
	standby     []Transfer
	hedgeTimers []*sim.Event
}

type state struct {
	p         Params
	name      string
	backend   Backend
	async     AsyncBackend // backend's optional async half, nil otherwise
	eng       *sim.Engine
	cluster   *topology.Cluster
	net       *netsim.Net
	scheduler sched.Scheduler
	env       *sched.Env

	jobs    []*jobState
	queue   *jobsched.Queue
	slaves  []*slaveState
	running map[*sched.Task]*runningMap

	builder   *Builder
	finished  int
	err       error
	repairMgr *repairManager // background healer, nil unless Repair.Active()

	// hedgeLat accumulates observed per-flow fan-in latencies; the
	// deadline-hedging estimator reads its quantiles. Only populated
	// under an active hedge policy.
	hedgeLat []float64

	// sends and reqs are the batch buffers of the push shuffle and the map
	// fan-in, cleared and kept after each batch (see startFlows).
	sends []shuffleRef
	reqs  []netsim.FlowReq
}

// ev returns a fresh event stamped with the current virtual time.
func (s *state) ev(typ trace.Type) trace.Event {
	return trace.New(s.eng.Now(), typ)
}

// emit feeds the internal Result builder and the external sink.
func (s *state) emit(e trace.Event) {
	if s.p.Label != "" && e.Run == "" {
		e.Run = s.p.Label
	}
	s.builder.Consume(e)
	if s.p.Sink != nil {
		s.p.Sink.Emit(e)
	}
}

func (s *state) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *state) allDone() bool { return s.finished == len(s.jobs) }

func (s *state) submitJob(js *jobState) {
	specs := make([]sched.TaskSpec, len(js.spec.Tasks))
	for i, t := range js.spec.Tasks {
		if h, ok := js.repairedHolder[i]; ok {
			t.Holder = h
		}
		t.Lost = !s.cluster.Alive(t.Holder)
		specs[i] = t
	}
	js.sj = sched.NewJob(js.idx, specs)
	js.submitted = true
	s.queue.Submit(js.idx, js.sj)
	e := s.ev(trace.EvJobSubmit)
	e.Job = js.idx
	e.Name = js.spec.Name
	e.N = len(specs)
	s.emit(e)
	qe := s.ev(trace.EvJobQueued)
	qe.Job = js.idx
	qe.Name = js.spec.Tenant
	s.emit(qe)
}

func (s *state) heartbeat(id topology.NodeID) {
	if s.err != nil || s.allDone() {
		return
	}
	if err := s.p.Ctx.Err(); err != nil {
		s.fail(fmt.Errorf("%s: %w", s.name, err))
		return
	}
	if s.eng.Now() > s.p.MaxSimTime {
		s.fail(fmt.Errorf("%s: exceeded MaxSimTime %.0fs with %d/%d jobs finished",
			s.name, s.p.MaxSimTime, s.finished, len(s.jobs)))
		return
	}
	if s.p.PollFailures != nil {
		s.injectNewlyDead(s.p.PollFailures())
	}
	if s.cluster.Alive(id) {
		s.serveSlave(id)
	}
	s.eng.Schedule(s.p.HeartbeatInterval, func() { s.heartbeat(id) })
}

// oobHeartbeat schedules an immediate extra heartbeat for a node that just
// freed a slot (models Hadoop's out-of-band heartbeat optimization).
func (s *state) oobHeartbeat(id topology.NodeID) {
	slave := s.slaves[id]
	if slave.oobPending || s.err != nil || s.allDone() {
		return
	}
	slave.oobPending = true
	s.eng.Schedule(0, func() {
		slave.oobPending = false
		if s.err == nil && !s.allDone() && s.cluster.Alive(id) {
			s.serveSlave(id)
		}
	})
}

func (s *state) serveSlave(id topology.NodeID) {
	slave := s.slaves[id]
	hb := s.ev(trace.EvHeartbeat)
	hb.Node = int(id)
	hb.N = slave.freeMap
	s.emit(hb)

	if slave.freeMap > 0 {
		s.env.Jobs = s.queue.MapOrder()
		if len(s.env.Jobs) > 0 {
			assignments := s.scheduler.Assign(s.env, sched.Heartbeat{
				Now:          s.eng.Now(),
				Node:         id,
				FreeMapSlots: slave.freeMap,
			})
			for _, a := range assignments {
				e := s.ev(trace.EvTaskScheduled)
				e.Job = a.Task.Job
				e.Task = a.Task.Index
				e.Node = int(id)
				e.Class = a.Class.String()
				s.emit(e)
				if s.queue.MapGranted(a.Task.Job) {
					g := s.ev(trace.EvJobGrant)
					g.Job = a.Task.Job
					g.Node = int(id)
					g.Name = s.jobs[a.Task.Job].spec.Tenant
					s.emit(g)
				}
				s.launchMap(a, id)
				if s.err != nil {
					return
				}
			}
			s.env.Jobs = s.queue.MapOrder()
			if slave.freeMap > 0 && len(s.env.Jobs) > 0 {
				e := s.ev(trace.EvSlotIdle)
				e.Node = int(id)
				e.N = slave.freeMap
				s.emit(e)
			}
		}
	}

	for slave.freeReduce > 0 {
		r := s.nextReducerToAssign()
		if r == nil {
			break
		}
		s.launchReducer(r, id)
	}
}

// nextReducerToAssign asks the job queue which job should take the next
// free reduce slot and picks its first unlaunched reducer.
func (s *state) nextReducerToAssign() *reducerState {
	e := s.queue.NextReduce()
	if e == nil {
		return nil
	}
	for _, r := range s.jobs[e.Idx].reducers {
		if !r.launched && !r.done {
			return r
		}
	}
	return nil
}

func (s *state) launchMap(a sched.Assignment, id topology.NodeID) {
	js := s.jobs[a.Task.Job]
	slave := s.slaves[id]
	if slave.freeMap <= 0 {
		s.fail(fmt.Errorf("%s: scheduler overcommitted node %d", s.name, id))
		return
	}
	slave.freeMap--

	e := s.ev(trace.EvTaskLaunch)
	e.Job = js.idx
	e.Task = a.Task.Index
	e.Node = int(id)
	e.Class = a.Class.String()
	s.emit(e)

	js.mapNode[a.Task.Index] = id
	rm := &runningMap{js: js, task: a.Task, node: id}
	s.running[a.Task] = rm

	plan, err := s.backend.PlanInput(js.idx, a.Task.Index, a.Class, id, s.p.Hedge.spareBudget())
	if err != nil {
		s.fail(err)
		return
	}
	rm.input = plan.Input
	need := len(plan.Transfers) - plan.Spares
	degraded := a.Class == sched.ClassDegraded
	hedged := degraded && s.p.Hedge.Active()
	// transfers launch now: the primaries and, under an active hedge
	// policy, up to Extra eager spares racing them. The remaining spares
	// stand by for deadline hedges.
	transfers := plan.Transfers[:need]
	if hedged {
		transfers = plan.Transfers[:need+min(s.p.Hedge.Extra, plan.Spares)]
		rm.standby = plan.Transfers[len(transfers):]
	}
	if degraded {
		var total float64
		for _, t := range transfers {
			total += t.Bytes
		}
		pe := s.ev(trace.EvDegradedPlan)
		pe.Job = js.idx
		pe.Task = a.Task.Index
		pe.Node = int(id)
		pe.N = len(transfers)
		pe.Bytes = total
		s.emit(pe)
	}

	if need == 0 {
		s.startProcessing(rm)
		return
	}
	// The whole input fan-in (surviving blocks + parity for a degraded
	// read, and any eager spares) is admitted as one batch: a single
	// bandwidth recomputation instead of one per source. Every flow of the
	// map, deadline hedges included, reports to one callback.
	rm.need = need
	rm.arrived = func(f *netsim.Flow) { s.inputArrived(rm, f, degraded, hedged) }
	reqs := s.reqs
	for _, tr := range transfers {
		reqs = append(reqs, netsim.FlowReq{Src: tr.Src, Dst: id, Bytes: tr.Bytes, Done: rm.arrived})
	}
	rm.flows = s.startFlows(reqs)
	if !hedged {
		return
	}
	if deadline, ok := s.hedgeDeadline(); ok {
		for _, f := range rm.flows {
			s.armHedgeTimer(rm, f, deadline)
		}
	}
}

// inputArrived is the per-flow completion callback of a map's input
// fan-in. The input is ready at the need-th completion: the flows still
// running then (only a hedged fan-in has any) are cancelled with the
// bytes they already moved recorded as waste, a degraded read is closed,
// and processing starts. Under a hedge policy every completion is also a
// latency sample for the deadline estimator.
func (s *state) inputArrived(rm *runningMap, f *netsim.Flow, degraded, hedged bool) {
	now := s.eng.Now()
	rm.got++
	if hedged {
		lat := now - f.StartedAt
		s.hedgeLat = append(s.hedgeLat, lat)
		s.emitFlowLatency(rm, f, "won", f.Bytes, lat)
	}
	if rm.got < rm.need {
		return
	}
	// The network recomputed before this callback, so Remaining() is
	// exact and Bytes-Remaining() is the volume a loser already moved.
	for _, lf := range rm.flows {
		if !lf.Finished() {
			s.emitFlowLatency(rm, lf, "lost", lf.Bytes-lf.Remaining(), now-lf.StartedAt)
			s.net.Cancel(lf)
		}
	}
	s.cancelHedgeTimers(rm)
	if degraded {
		de := s.ev(trace.EvDegradedDone)
		de.Job = rm.js.idx
		de.Task = rm.task.Index
		de.Node = int(rm.node)
		s.emit(de)
	}
	s.startProcessing(rm)
}

func (s *state) startProcessing(rm *runningMap) {
	e := s.ev(trace.EvMapStart)
	e.Job = rm.js.idx
	e.Task = rm.task.Index
	e.Node = int(rm.node)
	s.emit(e)
	dur, output := s.backend.Execute(rm.js.idx, rm.task.Index, rm.node, rm.input)
	rm.input = nil
	rm.output = output
	rm.procEv = s.eng.Schedule(dur, func() { s.completeMap(rm) })
}

func (s *state) completeMap(rm *runningMap) {
	if s.err != nil {
		return
	}
	js := rm.js
	id := rm.node

	if s.async != nil {
		// The virtual completion instant: block here until the real map
		// work has finished (or its worker died).
		out, err := s.async.AwaitOutput(js.idx, rm.task.Index, id, rm.output)
		if err != nil {
			s.asyncMapFailure(rm, err)
			return
		}
		rm.output = out
	}

	e := s.ev(trace.EvTaskFinish)
	e.Job = js.idx
	e.Task = rm.task.Index
	e.Node = int(id)
	s.emit(e)

	delete(s.running, rm.task)
	s.slaves[id].freeMap++
	s.queue.MapReleased(js.idx)
	js.mapsCompleted++
	js.mapDone[rm.task.Index] = true

	if len(js.reducers) > 0 {
		parts := s.backend.Partitions(js.idx, rm.task.Index, rm.output)
		js.parts[rm.task.Index] = parts
		sends := s.sends
		for rIdx, c := range parts {
			r := js.reducers[rIdx]
			if r.got[rm.task.Index] || r.done {
				continue
			}
			if r.launched {
				sends = append(sends, shuffleRef{s: s, r: r, mapIdx: rm.task.Index, src: id, chunk: c})
			} else {
				js.pendingShuffle[rIdx] = append(js.pendingShuffle[rIdx],
					pendingChunk{src: id, mapIdx: rm.task.Index, chunk: c})
			}
		}
		s.sendShuffles(sends)
	}
	rm.output = nil

	if js.mapsCompleted == js.totalMaps() {
		pe := s.ev(trace.EvMapPhaseEnd)
		pe.Job = js.idx
		s.emit(pe)
		if len(js.reducers) == 0 {
			s.finishJob(js)
		} else {
			for _, r := range js.reducers {
				s.checkReducer(r)
			}
		}
	}
	if s.p.OutOfBandHeartbeats {
		s.oobHeartbeat(id)
	}
}

// sendShuffles starts the shuffle transfers built in s.sends as one batch,
// costing a single bandwidth recomputation however wide the fan-out. The
// batch's refs are one allocation sized to it; each is its flow's only
// callback state.
func (s *state) sendShuffles(sends []shuffleRef) {
	if len(sends) == 0 {
		return
	}
	refs := make([]shuffleRef, len(sends))
	copy(refs, sends)
	clear(sends)
	s.sends = sends[:0]
	reqs := s.reqs
	for i := range refs {
		ref := &refs[i]
		reqs = append(reqs, netsim.FlowReq{Src: ref.src, Dst: ref.r.node, Bytes: ref.chunk.Bytes, Done: ref.arrived})
	}
	for i, f := range s.startFlows(reqs) {
		ref := &refs[i]
		ref.flow = f
		ref.r.job.shuffleFlows = append(ref.r.job.shuffleFlows, ref)
	}
}

// startFlows admits reqs, built in s.reqs, as one batch and keeps the
// cleared buffer for the next one. StartFlows keeps no reference to reqs,
// so the buffer is free again once it returns, and runs no completion
// callback inside it, so no other batch can start building in the buffer
// while this one holds it (netsim's TestStartFlowsBufferReusable).
func (s *state) startFlows(reqs []netsim.FlowReq) []*netsim.Flow {
	flows := s.net.StartFlows(reqs)
	clear(reqs)
	s.reqs = reqs[:0]
	return flows
}

func (s *state) launchReducer(r *reducerState, id topology.NodeID) {
	slave := s.slaves[id]
	slave.freeReduce--
	r.launched = true
	r.node = id
	s.queue.ReduceGranted(r.job.idx)

	e := s.ev(trace.EvReduceLaunch)
	e.Job = r.job.idx
	e.Task = r.idx
	e.Node = int(id)
	s.emit(e)

	pending := r.job.pendingShuffle[r.idx]
	r.job.pendingShuffle[r.idx] = nil
	sends := s.sends
	for _, pc := range pending {
		if r.got[pc.mapIdx] {
			continue
		}
		sends = append(sends, shuffleRef{s: s, r: r, mapIdx: pc.mapIdx, src: pc.src, chunk: pc.chunk})
	}
	s.sendShuffles(sends)
}

func (s *state) checkReducer(r *reducerState) {
	js := r.job
	if !r.launched || r.started || r.done {
		return
	}
	if js.mapsCompleted != js.totalMaps() || r.received != js.totalMaps() {
		return
	}
	r.started = true
	e := s.ev(trace.EvReduceStart)
	e.Job = js.idx
	e.Task = r.idx
	e.Node = int(r.node)
	e.Bytes = r.receivedBytes
	s.emit(e)
	dur := s.backend.ReduceDuration(js.idx, r.idx, r.node, r.receivedBytes)
	r.procEv = s.eng.Schedule(dur, func() { s.completeReducer(r) })
}

func (s *state) completeReducer(r *reducerState) {
	if s.err != nil {
		return
	}
	js := r.job
	if s.async != nil {
		if err := s.async.AwaitReduce(js.idx, r.idx, r.node); err != nil {
			s.asyncReduceFailure(r, err)
			return
		}
	}
	s.backend.ReduceFinish(js.idx, r.idx)
	r.done = true
	r.procEv = nil

	e := s.ev(trace.EvReduceFinish)
	e.Job = js.idx
	e.Task = r.idx
	e.Node = int(r.node)
	s.emit(e)

	s.slaves[r.node].freeReduce++
	s.queue.ReduceReleased(js.idx)
	js.reducersDone++
	if s.p.OutOfBandHeartbeats {
		s.oobHeartbeat(r.node)
	}
	if js.reducersDone == len(js.reducers) {
		s.finishJob(js)
	}
}

func (s *state) finishJob(js *jobState) {
	if js.finishedJ {
		return
	}
	js.finishedJ = true
	s.queue.JobFinished(js.idx)
	s.finished++
	e := s.ev(trace.EvJobFinish)
	e.Job = js.idx
	s.emit(e)
}
