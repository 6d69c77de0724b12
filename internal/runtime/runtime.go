package runtime

import (
	"context"
	"fmt"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Params describe one run: the cluster it runs on, the Options every
// engine shares, and the two estimates EDF reads. Run builds the engine,
// the network, the scheduler and its environment from them, and owns
// everything that happens between submission and the last job finishing.
type Params struct {
	// Name prefixes error messages ("mapred", "minimr").
	Name string
	// Ctx cancels the run at the next heartbeat (nil = background).
	Ctx     context.Context
	Cluster *topology.Cluster

	// Options are the run's settings; Run validates them against Cluster
	// and applies their defaults.
	Options

	// MapTime estimates one map task's processing time on a node of speed
	// factor 1, and DegradedReadTime one degraded read (see the function of
	// that name): EDF's locality-preservation and rack-awareness inputs.
	MapTime          float64
	DegradedReadTime float64

	// ToFail are failure-injection targets: failed before the run when
	// FailAt <= 0, otherwise at virtual time FailAt.
	FailAt float64
	ToFail []topology.NodeID

	// PollFailures, when set, is drained at every heartbeat with the
	// virtual time: any returned node not already failed is fed into the
	// same failure-recovery path as ToFail. The distributed runtime uses
	// it to surface workers whose real heartbeats missed their deadline.
	PollFailures func(now float64) []topology.NodeID

	// Work, when set, receives the simulator core's counters once the run
	// drains.
	Work *Work
}

// Work is what the simulator core did in one run: the event engine's and
// the network solver's counters.
type Work struct {
	Engine sim.Stats
	Net    netsim.Stats
}

func (p *Params) name() string {
	if p.Name == "" {
		return "runtime"
	}
	return p.Name
}

// maxSimTime is the virtual time after which a run is aborted, a safety
// net against scheduling bugs.
const maxSimTime = 1e7

// newScheduler builds a run's map scheduler; tests swap in one that
// misbehaves on purpose.
var newScheduler = sched.Kind.New

// Run drives the master loop over the given jobs until all finish, fail,
// or maxSimTime passes, and returns the Result rebuilt from the run's
// trace stream, or the stream's first violation of the Builder's grammar.
func Run(p Params, backend Backend, jobs []JobSpec) (*Result, error) {
	if backend == nil {
		return nil, fmt.Errorf("%s: nil backend", p.name())
	}
	if p.Ctx == nil {
		p.Ctx = context.Background()
	}
	if err := p.Options.Validate(p.Cluster.Spec()); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}
	eng := sim.New()
	net, err := netsim.New(eng, p.Cluster, p.NetConfig())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}
	scheduler, err := newScheduler(p.Scheduler, p.Cluster.NumRacks())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name(), err)
	}
	cluster, mapTime := p.Cluster, p.MapTime
	env := &sched.Env{
		Cluster:          cluster,
		PerTaskTime:      func(id topology.NodeID) float64 { return mapTime * cluster.Node(id).SpeedFactor },
		DegradedReadTime: p.DegradedReadTime,
	}

	st := &state{
		p:         p,
		name:      p.name(),
		backend:   backend,
		eng:       eng,
		cluster:   cluster,
		net:       net,
		scheduler: scheduler,
		env:       env,
		builder:   NewBuilder(),
	}
	if p.Repair.Active() {
		st.repairMgr = newRepairManager(st)
	}

	numNodes := st.cluster.NumNodes()
	st.slaves = make([]*slaveState, numNodes)
	reduceSlots := 0
	for i := 0; i < numNodes; i++ {
		node := st.cluster.Node(topology.NodeID(i))
		slave := &slaveState{
			freeMap:    node.MapSlots,
			freeReduce: node.ReduceSlots,
		}
		slave.beat = func() { st.heartbeat(node.ID) }
		slave.oob = func() { st.oobServe(node.ID) }
		st.slaves[i] = slave
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
		if jobs[i].NumReducers > 0 && reduceSlots == 0 { // or it would heartbeat to maxSimTime
			return nil, fmt.Errorf("%s: job %q: %d reduce tasks, but the cluster has no reduce slots", p.name(), jobs[i].Name, jobs[i].NumReducers)
		}
		queue.Add(jobs[i].JobMeta, jobs[i].NumReducers)
		js := &jobState{idx: i, spec: jobs[i]}
		if n := jobs[i].NumReducers; n > 0 {
			js.reducers = make([]*reducerState, n)
			for r := 0; r < n; r++ {
				js.reducers[r] = &reducerState{job: js, idx: r}
			}
			js.shuffle = newShuffle(st, js)
		}
		st.jobs[i] = js
	}

	st.net.SetHooks(netsim.Hooks{
		Start: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferStart)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(&e)
		},
		Finish: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferEnd)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(&e)
		},
		Cancel: func(f *netsim.Flow) {
			e := st.ev(trace.EvTransferCancel)
			e.Src, e.Dst, e.Bytes, e.N = int(f.Src), int(f.Dst), f.Bytes, f.ID
			st.emit(&e)
		},
	})

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
	rs.Name = p.Scheduler.String()
	st.emit(&rs)
	for _, id := range st.cluster.FailedNodes() {
		e := st.ev(trace.EvNodeFail)
		e.Node = int(id)
		st.emit(&e)
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
		st.slaves[id].beatEv = st.eng.Schedule(offset, st.slaves[id].beat)
	}

	// A failed run dispatches nothing more, so no event callback starts
	// with s.err set.
	for st.err == nil && st.eng.Step() {
	}
	if p.Work != nil {
		*p.Work = Work{Engine: eng.Stats(), Net: net.Stats()}
	}

	if st.err != nil {
		return nil, st.err
	}
	// The engine ran dry. The Builder's run-end check rejects what that can
	// leave behind: a job that never finished, or a flow admitted and never
	// finished or cancelled (starved, never rescheduled).
	end := st.ev(trace.EvRunEnd)
	st.emit(&end)
	res, err := st.builder.Result()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", st.name, err)
	}
	return res, nil
}

type slaveState struct {
	freeMap    int
	freeReduce int
	oobPending bool
	// beat and oob are the node's heartbeat and out-of-band heartbeat
	// callbacks, built once per run, and beatEv and oobEv their events,
	// each moved with Reschedule once it has fired.
	beat, oob     func()
	beatEv, oobEv *sim.Event
}

type reducerState struct {
	job      *jobState
	idx      int
	node     topology.NodeID
	launched bool
	started  bool
	done     bool
	procEv   *sim.Event
}

type jobState struct {
	idx       int
	spec      JobSpec
	sj        *sched.Job
	submitted bool
	finishedJ bool

	mapsCompleted int
	reducers      []*reducerState
	reducersDone  int
	shuffle       *shuffle // nil for a map-only job, and once the job finishes

	// repairedHolder overrides task holders for jobs not yet submitted:
	// the background healer rebuilt the task's input block on a new node
	// before the job arrived, so submission classifies against the
	// repaired placement rather than the spec's stale holder.
	repairedHolder map[int]topology.NodeID
}

func (js *jobState) totalMaps() int { return len(js.spec.Tasks) }

// runningMap is one map attempt, from its launch until it completes or is
// requeued.
//
// Records are recycled, as netsim recycles flows: launchMap takes one from
// the free list and releaseMap returns it when completeMap or
// requeueRunning is done with it. By then nothing pending refers to it:
// its flows have arrived or been cancelled, its hedge timers and its
// processing event have fired or been cancelled, and the backend has had
// its payloads back. A record's two callbacks, arrived and complete, are
// built once with the record, its processing event is moved with
// Reschedule, and flows, hedgeTimers and the input plan's Sources and
// Transfers keep their capacity from one attempt to the next.
type runningMap struct {
	js   *jobState
	task *sched.Task
	node topology.NodeID
	slot int // index in state.running while the attempt runs, -1 after
	// flows are the input fan-in's flows by Tag, each cleared when it
	// arrives or is cancelled.
	flows  []*netsim.Flow
	procEv *sim.Event
	// plan is the backend's input plan; its Input is dropped once Execute
	// has it.
	plan    InputPlan
	pending any // Execute's payload, for AwaitOutput

	// Input fan-in state: the input is ready at the need-th flow
	// completion (got counts them), and arrived is the one callback every
	// flow reports to. The map-start that follows closes a degraded read;
	// under an active hedge policy (hedged) standby holds unlaunched spare
	// sources for deadline hedges, and hedgeTimers the pending per-flow
	// deadline checks.
	need        int
	got         int
	hedged      bool
	arrived     func(*netsim.Flow)
	complete    func() // the processing event's callback
	standby     []Transfer
	hedgeTimers []*sim.Event
}

// acquireMap returns a record for a new attempt of task on node, in the
// running set.
func (s *state) acquireMap(js *jobState, task *sched.Task, node topology.NodeID) *runningMap {
	var rm *runningMap
	if n := len(s.freeMaps); n > 0 {
		rm, s.freeMaps = s.freeMaps[n-1], s.freeMaps[:n-1]
	} else {
		rm = &runningMap{}
		rm.arrived = func(f *netsim.Flow) { s.inputArrived(rm, f) }
		rm.complete = func() { s.completeMap(rm) }
	}
	rm.js, rm.task, rm.node = js, task, node
	rm.slot = len(s.running)
	s.running = append(s.running, rm)
	return rm
}

// releaseMap takes a finished or requeued attempt out of the running set
// and returns its record to the free list.
func (s *state) releaseMap(rm *runningMap) {
	last := s.running[len(s.running)-1]
	s.running[rm.slot], last.slot = last, rm.slot
	s.running[len(s.running)-1] = nil
	s.running = s.running[:len(s.running)-1]
	*rm = runningMap{
		slot:        -1,
		flows:       rm.flows[:0],
		hedgeTimers: rm.hedgeTimers[:0],
		plan:        InputPlan{Sources: rm.plan.Sources[:0], Transfers: rm.plan.Transfers[:0]},
		procEv:      rm.procEv,
		arrived:     rm.arrived,
		complete:    rm.complete,
	}
	s.freeMaps = append(s.freeMaps, rm)
}

type state struct {
	p         Params
	name      string
	backend   Backend
	eng       *sim.Engine
	cluster   *topology.Cluster
	net       *netsim.Net
	scheduler sched.Scheduler
	env       *sched.Env

	jobs   []*jobState
	queue  *jobsched.Queue
	slaves []*slaveState
	// running holds the attempts in flight, each at its slot; freeMaps
	// holds released records for the next launches.
	running  []*runningMap
	freeMaps []*runningMap

	// specs is submitJob's buffer; NewJob copies what it needs.
	specs []sched.TaskSpec

	builder   *Builder
	finished  int
	err       error
	repairMgr *repairManager // background healer, nil unless Repair.Active()

	// hedgeLat accumulates observed per-flow fan-in latencies; the
	// deadline-hedging estimator reads its quantiles. Only populated
	// under an active hedge policy.
	hedgeLat []float64

	// reqs is the batch buffer every flow starter builds in, cleared and
	// kept after each batch (see startFlows).
	reqs []netsim.FlowReq

	// The stall check's state (see stalled): maps and reducers launched
	// so far, and how many heartbeats in a row, of any node and of live
	// nodes, found the run quiet and launched nothing.
	launches            int
	quietBeats, quietUp int
}

// ev returns a fresh event stamped with the current virtual time.
func (s *state) ev(typ trace.Type) trace.Event {
	return trace.New(s.eng.Now(), typ)
}

// emit feeds the internal Result builder and the external sink. It takes
// the event by pointer, so the builder reads the caller's copy; only a set
// sink gets one of its own.
func (s *state) emit(e *trace.Event) {
	if s.p.TraceLabel != "" && e.Run == "" {
		e.Run = s.p.TraceLabel
	}
	s.builder.Consume(e)
	if s.p.Trace != nil {
		s.p.Trace.Emit(*e)
	}
}

func (s *state) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *state) allDone() bool { return s.finished == len(s.jobs) }

func (s *state) submitJob(js *jobState) {
	specs := s.specs[:0]
	for i, t := range js.spec.Tasks {
		if h, ok := js.repairedHolder[i]; ok {
			t.Holder = h
		}
		t.Lost = !s.cluster.Alive(t.Holder)
		specs = append(specs, t)
	}
	s.specs = specs
	js.sj = sched.NewJob(js.idx, specs)
	js.submitted = true
	s.queue.Submit(js.idx, js.sj)
	e := s.ev(trace.EvJobSubmit)
	e.Job = js.idx
	e.Name = js.spec.Name
	e.N = len(specs)
	s.emit(&e)
	qe := s.ev(trace.EvJobQueued)
	qe.Job = js.idx
	qe.Name = js.spec.Tenant
	s.emit(&qe)
}

func (s *state) heartbeat(id topology.NodeID) {
	if s.allDone() {
		return
	}
	if err := s.p.Ctx.Err(); err != nil {
		s.fail(fmt.Errorf("%s: %w", s.name, err))
		return
	}
	if s.eng.Now() > maxSimTime {
		s.fail(fmt.Errorf("%s: exceeded the %.0f s virtual-time limit with %d/%d jobs finished",
			s.name, maxSimTime, s.finished, len(s.jobs)))
		return
	}
	if s.p.PollFailures != nil {
		s.injectNewlyDead(s.p.PollFailures(s.eng.Now()))
	}
	launched, alive := s.launches, s.cluster.Alive(id)
	if alive {
		s.serveSlave(id)
	}
	if s.err == nil && s.stalled(launched, alive) {
		s.fail(fmt.Errorf("%s: stalled at %.0f s: no map, reducer, transfer, hedge or repair in flight, no job or failure to come, and %d heartbeats in a row launched nothing (%d/%d jobs finished)",
			s.name, s.eng.Now(), s.quietBeats, s.finished, len(s.jobs)))
		return
	}
	slave := s.slaves[id]
	slave.beatEv = s.eng.Reschedule(slave.beatEv, s.eng.Now()+s.p.HeartbeatInterval, slave.beat)
}

// stalled reports whether the run can no longer progress, after a
// heartbeat of a node (alive: one that is up) that began with launched
// maps and reducers launched. The run is quiet when no event but the
// other nodes' heartbeats is pending: no map attempt (its transfers, hedge
// timers and processing are events), no started reducer, transfer, repair
// or repair wait, no job submission and no failure to come. Quiet
// heartbeats that launch nothing prove a stall once no scheduler may still
// be waiting: every node has had one since the run went quiet or a node
// last failed, and live nodes more than sched.PatienceRounds per rack.
func (s *state) stalled(launched int, alive bool) bool {
	if s.launches != launched || s.eng.Pending() != len(s.slaves)-1 {
		s.quietBeats, s.quietUp = 0, 0
		return false
	}
	s.quietBeats++
	if alive {
		s.quietUp++
	}
	return s.quietBeats >= len(s.slaves) && s.quietUp > sched.PatienceRounds*s.cluster.NumRacks()
}

// oobHeartbeat schedules an immediate extra heartbeat for a node that just
// freed a slot (models Hadoop's out-of-band heartbeat optimization).
func (s *state) oobHeartbeat(id topology.NodeID) {
	slave := s.slaves[id]
	if slave.oobPending || s.err != nil || s.allDone() {
		return
	}
	slave.oobPending = true
	slave.oobEv = s.eng.Reschedule(slave.oobEv, s.eng.Now(), slave.oob)
}

// oobServe is the extra heartbeat oobHeartbeat scheduled.
func (s *state) oobServe(id topology.NodeID) {
	s.slaves[id].oobPending = false
	if !s.allDone() && s.cluster.Alive(id) {
		s.serveSlave(id)
	}
}

func (s *state) serveSlave(id topology.NodeID) {
	slave := s.slaves[id]
	hb := s.ev(trace.EvHeartbeat)
	hb.Node = int(id)
	hb.N = slave.freeMap
	s.emit(&hb)

	if slave.freeMap > 0 {
		s.env.Jobs = s.queue.MapOrder()
		if len(s.env.Jobs) > 0 {
			assignments := s.scheduler.Assign(s.env, sched.Heartbeat{
				Now:          s.eng.Now(),
				Node:         id,
				FreeMapSlots: slave.freeMap,
			})
			for _, a := range assignments {
				if s.queue.MapGranted(a.Task.Job) {
					g := s.ev(trace.EvJobGrant)
					g.Job = a.Task.Job
					g.Node = int(id)
					g.Name = s.jobs[a.Task.Job].spec.Tenant
					s.emit(&g)
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
				s.emit(&e)
			}
		}
	}

	for slave.freeReduce > 0 {
		r := s.nextReducerToAssign()
		if r == nil {
			break
		}
		s.launchReducer(r, id)
		if s.err != nil {
			return
		}
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
	s.launches++

	e := s.ev(trace.EvTaskLaunch)
	e.Job = js.idx
	e.Task = a.Task.Index
	e.Node = int(id)
	e.Class = a.Class.String()
	s.emit(&e)

	rm := s.acquireMap(js, a.Task, id)

	plan := &rm.plan
	if err := s.backend.PlanInput(js.idx, a.Task.Index, a.Class, id, s.p.Hedge.spareBudget(), plan); err != nil {
		s.fail(err)
		return
	}
	need := len(plan.Transfers) - plan.Spares
	degraded := a.Class == sched.ClassDegraded
	rm.hedged = degraded && s.p.Hedge.Active()
	// transfers launch now: the primaries and, under an active hedge
	// policy, up to Extra eager spares racing them. The remaining spares
	// stand by for deadline hedges.
	transfers := plan.Transfers[:need]
	if rm.hedged {
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
		s.emit(&pe)
	}

	if need == 0 {
		s.startProcessing(rm)
		return
	}
	// The whole input fan-in (surviving blocks + parity for a degraded
	// read, and any eager spares) is admitted as one batch: a single
	// bandwidth recomputation instead of one per source. Every flow of the
	// map, deadline hedges included, reports to the record's one callback,
	// and carries its index in rm.flows as its Tag.
	rm.need = need
	reqs := s.reqs
	for i, tr := range transfers {
		reqs = append(reqs, netsim.FlowReq{Src: tr.Src, Dst: id, Bytes: tr.Bytes, Tag: i, Done: rm.arrived})
	}
	rm.flows = append(rm.flows, s.startFlows(reqs)...)
	if !rm.hedged {
		return
	}
	if deadline, ok := s.hedgeDeadline(); ok {
		for i := range rm.flows {
			s.armHedgeTimer(rm, i, deadline)
		}
	}
}

// inputArrived is the per-flow completion callback of a map's input
// fan-in. It clears the flow's entry, whose record netsim reuses once this
// returns. The input is ready at the need-th completion: the flows still
// running then (only a hedged fan-in has any) are cancelled with the
// bytes they already moved recorded as waste, and processing starts.
// Under a hedge policy every completion is also a latency sample for the
// deadline estimator.
func (s *state) inputArrived(rm *runningMap, f *netsim.Flow) {
	now := s.eng.Now()
	rm.flows[f.Tag] = nil
	rm.got++
	if rm.hedged {
		lat := now - f.StartedAt
		s.hedgeLat = append(s.hedgeLat, lat)
		s.emitFlowLatency(rm, f, "won", f.Bytes, lat)
	}
	if rm.got < rm.need {
		return
	}
	// The network recomputed before this callback, so Remaining() is
	// exact and Bytes-Remaining() is the volume a loser already moved.
	for i, lf := range rm.flows {
		if lf != nil {
			s.emitFlowLatency(rm, lf, "lost", lf.Bytes-lf.Remaining(), now-lf.StartedAt)
			s.net.Cancel(lf)
			rm.flows[i] = nil
		}
	}
	s.cancelHedgeTimers(rm)
	s.startProcessing(rm)
}

func (s *state) startProcessing(rm *runningMap) {
	e := s.ev(trace.EvMapStart)
	e.Job = rm.js.idx
	e.Task = rm.task.Index
	e.Node = int(rm.node)
	s.emit(&e)
	dur, pending := s.backend.Execute(rm.js.idx, rm.task.Index, rm.node, rm.plan.Input)
	rm.plan.Input = nil
	rm.pending = pending
	rm.procEv = s.eng.Reschedule(rm.procEv, s.eng.Now()+dur*s.cluster.Node(rm.node).SpeedFactor, rm.complete)
}

func (s *state) completeMap(rm *runningMap) {
	js, task, id := rm.js, rm.task, rm.node

	// The virtual completion instant: an engine running real work blocks
	// here until it has finished (or its worker died).
	parts, err := s.backend.AwaitOutput(js.idx, task.Index, id, rm.pending)
	rm.pending = nil
	if err != nil {
		s.mapAwaitFailure(rm, err)
		return
	}

	e := s.ev(trace.EvTaskFinish)
	e.Job = js.idx
	e.Task = task.Index
	e.Node = int(id)
	s.emit(&e)

	s.releaseMap(rm)
	s.release(id, &s.slaves[id].freeMap, s.cluster.Node(id).MapSlots)
	s.queue.MapReleased(js.idx)
	js.mapsCompleted++
	if js.shuffle != nil {
		js.shuffle.mapFinished(task.Index, id, parts)
	}

	if js.mapsCompleted == js.totalMaps() {
		pe := s.ev(trace.EvMapPhaseEnd)
		pe.Job = js.idx
		s.emit(&pe)
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

// startFlows admits reqs, built in s.reqs, as one batch and keeps the
// cleared buffer for the next one. StartFlows keeps no reference to reqs,
// so the buffer is free again once it returns, and runs no completion
// callback inside it, so no other batch can start building in the buffer
// while this one holds it (netsim's TestStartFlowsBufferReusable). The
// flows come back in netsim's slice, which the next batch overwrites.
func (s *state) startFlows(reqs []netsim.FlowReq) []*netsim.Flow {
	flows := s.net.StartFlows(reqs)
	clear(reqs)
	s.reqs = reqs[:0]
	return flows
}

// release returns one of node id's slots to its free count, which may not
// exceed the node's capacity: a release past it means some path freed a
// slot it did not hold, and fails the run.
func (s *state) release(id topology.NodeID, free *int, capacity int) {
	if *free >= capacity {
		s.fail(fmt.Errorf("%s: node %d released a slot it did not hold", s.name, id))
		return
	}
	*free++
}

func (s *state) launchReducer(r *reducerState, id topology.NodeID) {
	slave := s.slaves[id]
	if slave.freeReduce <= 0 {
		s.fail(fmt.Errorf("%s: reducer launched on node %d with no free reduce slot", s.name, id))
		return
	}
	slave.freeReduce--
	s.launches++
	r.launched = true
	r.node = id
	s.queue.ReduceGranted(r.job.idx)

	e := s.ev(trace.EvReduceLaunch)
	e.Job = r.job.idx
	e.Task = r.idx
	e.Node = int(id)
	s.emit(&e)
	r.job.shuffle.launch(r.idx)
}

func (s *state) checkReducer(r *reducerState) {
	js := r.job
	if !r.launched || r.started || r.done || js.mapsCompleted != js.totalMaps() {
		return
	}
	bytes, all := js.shuffle.received(r.idx)
	if !all {
		return
	}
	r.started = true
	e := s.ev(trace.EvReduceStart)
	e.Job = js.idx
	e.Task = r.idx
	e.Node = int(r.node)
	e.Bytes = bytes
	s.emit(&e)
	dur := s.backend.StartReduce(js.idx, r.idx, r.node, bytes) * s.cluster.Node(r.node).SpeedFactor
	r.procEv = s.eng.Schedule(dur, func() { s.completeReducer(r) })
}

func (s *state) completeReducer(r *reducerState) {
	js := r.job
	if err := s.backend.AwaitReduce(js.idx, r.idx, r.node); err != nil {
		s.reduceAwaitFailure(r, err)
		return
	}
	r.done = true
	r.procEv = nil

	e := s.ev(trace.EvReduceFinish)
	e.Job = js.idx
	e.Task = r.idx
	e.Node = int(r.node)
	s.emit(&e)

	s.release(r.node, &s.slaves[r.node].freeReduce, s.cluster.Node(r.node).ReduceSlots)
	s.queue.ReduceReleased(js.idx)
	js.reducersDone++
	if s.p.OutOfBandHeartbeats {
		s.oobHeartbeat(r.node)
	}
	if js.reducersDone == len(js.reducers) {
		s.finishJob(js)
	}
}

// finishJob runs once per job: at its last reducer's finish, or at its
// last map's for a job without reducers; recovery skips finished jobs.
func (s *state) finishJob(js *jobState) {
	js.finishedJ = true
	// Failure recovery skips a finished job, so nothing reads its shuffle
	// again: let the map outputs go.
	js.shuffle = nil
	s.queue.JobFinished(js.idx)
	s.finished++
	e := s.ev(trace.EvJobFinish)
	e.Job = js.idx
	s.emit(&e)
}
