package runtime

import (
	"fmt"
	"slices"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// activeRepair is one stripe repair in flight: its launch-time plan,
// per-block gather countdowns, and commit state.
type activeRepair struct {
	key  repair.Key
	plan repair.StripePlan
	// gather[i] counts block i's source flows still in flight.
	gather []int
	// done[i] marks block i committed — the no-double-write guard.
	done      []bool
	remaining int
	// flows are the source flows by Tag, each cleared when it arrives.
	flows []*netsim.Flow
}

// readBytes returns the planned read volume of block i.
func (ar *activeRepair) readBytes(i int, blockBytes float64) float64 {
	return float64(len(ar.plan.Blocks[i].Sources)) * blockBytes
}

// repairManager drives the background healer inside the master loop:
// scans after failures, a discovery-ordered stripe queue, a token-bucket
// throttle, and repairs executed as real flows on the shared network, one
// stripe at a time.
type repairManager struct {
	s      *state
	queue  *repair.Queue
	bucket *repair.Bucket

	// active is the stripe repair in flight, nil between repairs.
	active *activeRepair
	// unrep records stripes already reported unrepairable, so the
	// distinct report is emitted once per stripe.
	unrep map[repair.Key]bool

	// waitEv is the pending token-refill retry.
	waitEv *sim.Event
}

func newRepairManager(s *state) *repairManager {
	return &repairManager{
		s:      s,
		queue:  repair.NewQueue(),
		bucket: repair.NewBucket(s.p.Repair.RateFraction * s.p.repairLinkBps(s.cluster.Spec())),
		unrep:  make(map[repair.Key]bool),
	}
}

// blockBytes returns the per-block transfer volume.
func (m *repairManager) blockBytes() float64 { return m.s.backend.RepairBlockBytes() }

// evStripe returns a repair event stamped with a stripe's identity.
func (m *repairManager) evStripe(typ trace.Type, key repair.Key) trace.Event {
	e := m.s.ev(typ)
	e.Name = key.File
	e.Task = key.Stripe
	return e
}

// scheduleScan arms a DFS scan for the given failures on a zero-delay
// event.
func (m *repairManager) scheduleScan(nodes []topology.NodeID) {
	nodes = append([]topology.NodeID(nil), nodes...)
	m.s.eng.Schedule(0, func() { m.scan(nodes) })
}

// scan asks the backend for the stripes degraded by the given failures
// and queues their repairs. Stripes already being repaired are queued
// too (the pump skips them while active): a failure can add lost blocks
// to a stripe whose earlier losses are mid-repair, and the re-plan at
// next launch picks up whatever the in-flight pass does not heal.
func (m *repairManager) scan(nodes []topology.NodeID) {
	plans, err := m.s.backend.ScanLostBlocks(nodes)
	if err != nil {
		m.s.fail(fmt.Errorf("%s: repair scan: %w", m.s.name, err))
		return
	}
	for _, plan := range plans {
		if plan.Unrepairable {
			m.markUnrepairable(plan.Key, plan.Lost)
			continue
		}
		m.enqueue(plan, "scan", false)
	}
	m.pump()
}

// enqueue upserts a stripe into the repair queue and emits the queue
// event. class is "scan" for scanner findings and "requeue" for stripes
// whose in-flight repair was cancelled by a failure.
func (m *repairManager) enqueue(plan repair.StripePlan, class string, boost bool) {
	m.queue.Upsert(plan.Key, boost)
	e := m.evStripe(trace.EvRepairQueued, plan.Key)
	e.Class = class
	e.N = plan.Lost
	e.Bytes = plan.ReadBytes(m.blockBytes())
	m.s.emit(&e)
}

// markUnrepairable reports a stripe past its code's loss tolerance, or
// with nowhere to rebuild — once, distinctly, and never launched.
func (m *repairManager) markUnrepairable(key repair.Key, lost int) {
	if m.unrep[key] {
		return
	}
	m.unrep[key] = true
	m.queue.Remove(key)
	e := m.evStripe(trace.EvRepairQueued, key)
	e.Class = "unrepairable"
	e.N = lost
	m.s.emit(&e)
}

// pump launches the queue's head once no repair is in flight, unless the
// token bucket blocks it. The bucket gates the head only: while the
// head stripe waits for tokens nothing behind it launches (head-of-line
// blocking is the throttle semantics).
func (m *repairManager) pump() {
	if m.waitEv != nil {
		m.s.eng.Cancel(m.waitEv)
		m.waitEv = nil
	}
	for m.active == nil {
		it := m.queue.Peek()
		if it == nil {
			return
		}
		plan, err := m.s.backend.PlanStripeRepair(it.Key)
		if err != nil {
			m.s.fail(fmt.Errorf("%s: repair plan for %s: %w", m.s.name, it.Key, err))
			return
		}
		if len(plan.Blocks) == 0 {
			// Healed since it was queued, or past its tolerance: the
			// failure that made it so has a scan queued, which reports it.
			m.queue.Remove(it.Key)
			continue
		}
		need := plan.ReadBytes(m.blockBytes())
		now := m.s.eng.Now()
		ok, readyAt := m.bucket.Take(now, need)
		if !ok {
			m.waitEv = m.s.eng.Schedule(readyAt-now, func() {
				m.waitEv = nil
				m.pump()
			})
			return
		}
		m.queue.Remove(it.Key)
		m.launch(plan)
	}
}

// launch starts one stripe repair: every lost block's source reads are
// admitted as a single batch through the shared network, and each block
// commits when its last source flow lands.
func (m *repairManager) launch(plan repair.StripePlan) {
	ar := &activeRepair{
		key:       plan.Key,
		plan:      plan,
		gather:    make([]int, len(plan.Blocks)),
		done:      make([]bool, len(plan.Blocks)),
		remaining: len(plan.Blocks),
	}
	m.active = ar

	reqs := m.s.reqs
	for i, bp := range plan.Blocks {
		e := m.evStripe(trace.EvRepairLaunch, plan.Key)
		e.N = bp.Index
		e.Node = int(bp.Dest)
		e.Bytes = ar.readBytes(i, m.blockBytes())
		e.Class = repairClass(bp)
		m.s.emit(&e)
		ar.gather[i] = len(bp.Sources)
		gathered := func(f *netsim.Flow) {
			ar.flows[f.Tag] = nil
			m.blockGathered(ar, i)
		}
		for _, src := range bp.Sources {
			reqs = append(reqs, netsim.FlowReq{
				Src:   src.Node,
				Dst:   bp.Dest,
				Bytes: m.blockBytes(),
				Tag:   len(reqs), // reqs starts empty: the flow's index in ar.flows
				Done:  gathered,
			})
		}
	}
	ar.flows = slices.Clone(m.s.startFlows(reqs))
}

// repairClass labels a block plan for traces: "local" for LRC
// local-group repairs, "global" for full reconstructions.
func repairClass(bp repair.BlockPlan) string {
	if bp.Local {
		return "local"
	}
	return "global"
}

// blockGathered is the per-source-flow completion callback: the block
// commits at its last flow's arrival.
func (m *repairManager) blockGathered(ar *activeRepair, i int) {
	ar.gather[i]--
	if ar.gather[i] > 0 {
		return
	}
	m.commitBlock(ar, i)
}

// commitBlock finalizes one rebuilt block. Runs inside a network
// completion callback, so it must not start or cancel flows: failures
// defer into injectNewlyDead on a zero-delay event, and stripe
// completion defers the next pump the same way.
func (m *repairManager) commitBlock(ar *activeRepair, i int) {
	refs, err := m.s.backend.CommitRepair(ar.key, ar.plan.Blocks[i])
	if err != nil {
		m.s.deferFailure(fmt.Errorf("%s: repair commit for %s: %w", m.s.name, ar.key, err))
		return
	}
	ar.done[i] = true
	ar.remaining--
	bp := ar.plan.Blocks[i]
	e := m.evStripe(trace.EvRepairDone, ar.key)
	e.N = bp.Index
	e.Node = int(bp.Dest)
	e.Bytes = ar.readBytes(i, m.blockBytes())
	e.Class = repairClass(bp)
	m.s.emit(&e)
	for _, ref := range refs {
		m.restoreTask(ref, bp.Dest)
	}
	if ar.remaining == 0 {
		// The next launch starts flows, which must not happen inside a
		// network completion callback: pump on a zero-delay event.
		m.active = nil
		m.s.eng.Schedule(0, m.pump)
	}
}

// restoreTask returns a repaired block to the foreground scheduler's
// view: a pending degraded task whose input just came back reverts to a
// normal task reading from the new holder. Running and finished tasks
// are untouched — their degraded read already happened — and jobs not
// yet submitted pick the new holder up at submission. A task index past
// the job's task count (a padded last stripe) backs no task.
func (m *repairManager) restoreTask(ref RepairedTask, holder topology.NodeID) {
	js := m.s.jobs[ref.Job]
	if ref.Task >= len(js.spec.Tasks) {
		return
	}
	if !js.submitted {
		if js.repairedHolder == nil {
			js.repairedHolder = make(map[int]topology.NodeID)
		}
		js.repairedHolder[ref.Task] = holder
		return
	}
	if js.finishedJ {
		return
	}
	t := js.sj.Task(ref.Task)
	if !t.Assigned() && t.Lost {
		js.sj.Recover(t, holder)
	}
}

// onFailure reacts to a mid-run failure: an in-flight repair touching a
// dead node is cancelled and its stripe re-queued at boosted priority,
// then a fresh scan is armed for the new losses. Called from
// injectFailure, which never runs inside a network callback, so flow
// cancellation is safe here.
func (m *repairManager) onFailure(nodes []topology.NodeID) {
	dead := func(id topology.NodeID) bool { return !m.s.cluster.Alive(id) }
	if ar := m.active; ar != nil && m.repairAffected(ar, dead) {
		for _, f := range ar.flows {
			if f != nil {
				m.s.net.Cancel(f)
			}
		}
		m.active = nil
		// Re-queue boosted. The queue event reports the pre-failure plan's
		// unfinished blocks; the launch-time re-plan decides what is
		// actually left to rebuild.
		requeued := repair.StripePlan{Key: ar.key}
		for i, bp := range ar.plan.Blocks {
			if !ar.done[i] {
				requeued.Blocks = append(requeued.Blocks, bp)
			}
		}
		if requeued.Lost = len(requeued.Blocks); requeued.Lost > 0 {
			m.enqueue(requeued, "requeue", true)
		}
	}
	m.scheduleScan(nodes) // the scan pumps
}

// repairAffected reports whether a failure touched this repair: a
// source flow still in flight lost an endpoint, or an uncommitted
// block's destination died.
func (m *repairManager) repairAffected(ar *activeRepair, dead func(topology.NodeID) bool) bool {
	for _, f := range ar.flows {
		if f != nil && (dead(f.Src) || dead(f.Dst)) {
			return true
		}
	}
	for i, bp := range ar.plan.Blocks {
		if !ar.done[i] && dead(bp.Dest) {
			return true
		}
	}
	return false
}
