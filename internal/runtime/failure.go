package runtime

import (
	"cmp"
	"errors"
	"slices"

	"degradedfirst/internal/topology"

	"degradedfirst/internal/trace"
)

// injectFailure fails the given nodes mid-run and applies Hadoop's
// recovery semantics:
//
//  1. pending map tasks whose input block lived on a failed node become
//     degraded tasks;
//  2. running map tasks on a failed node — or reading from one — are
//     cancelled and requeued;
//  3. completed map tasks that ran on a failed node lose their output;
//     they are re-executed if any unfinished reducer still needs it;
//  4. reduce tasks on a failed node restart from scratch on another node
//     and re-fetch every map output.
func (s *state) injectFailure(nodes []topology.NodeID) {
	// What the scheduler sees changes: the stall check starts over.
	s.quietBeats, s.quietUp = 0, 0
	for _, id := range nodes {
		s.cluster.FailNode(id)
		e := s.ev(trace.EvNodeFail)
		e.Node = int(id)
		s.emit(&e)
	}
	dead := func(id topology.NodeID) bool { return !s.cluster.Alive(id) }

	// (1) Reclassify pending tasks of every submitted job.
	for _, js := range s.jobs {
		if js.sj == nil || js.finishedJ {
			continue
		}
		for _, id := range nodes {
			js.sj.MarkHolderLost(id)
		}
	}

	// (2) Cancel and requeue affected running map tasks. Collect first:
	// requeueing mutates s.running.
	var affected []*runningMap
	for _, rm := range s.running {
		if dead(rm.node) {
			affected = append(affected, rm)
			continue
		}
		for _, f := range rm.flows {
			if f != nil && (dead(f.Src) || dead(f.Dst)) {
				affected = append(affected, rm)
				break
			}
		}
	}
	// Deterministic order: by job then task index.
	slices.SortFunc(affected, func(a, b *runningMap) int {
		return cmp.Or(cmp.Compare(a.js.idx, b.js.idx), cmp.Compare(a.task.Index, b.task.Index))
	})
	for _, rm := range affected {
		s.requeueRunning(rm)
	}

	// (3) + (4) per unfinished job with reducers (a map-only job's output
	// is in the DFS): shuffle flows, dead reducers, lost outputs.
	for _, js := range s.jobs {
		if js.shuffle == nil {
			continue
		}
		js.shuffle.cancel(dead)
		s.recoverReducers(js, dead)
		s.reexecuteLostOutputs(js, dead)
	}

	// (5) The background healer cancels in-flight repairs touching the
	// dead nodes, re-queues their stripes boosted, and arms a rescan.
	if s.repairMgr != nil {
		s.repairMgr.onFailure(nodes)
	}
}

// injectNewlyDead filters ids down to nodes not already failed, each
// once, and injects those. Duplicate reports are common in the
// distributed runtime: a worker's death surfaces through heartbeat
// deadlines, RPC timeouts, dropped connections and every fetch from it
// that failed, in any order.
func (s *state) injectNewlyDead(ids []topology.NodeID) {
	var fresh []topology.NodeID
	for _, id := range ids {
		if s.cluster.Alive(id) && !slices.Contains(fresh, id) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 {
		s.injectFailure(fresh)
	}
}

// mapAwaitFailure handles an AwaitOutput error at a map task's virtual
// completion instant.
func (s *state) mapAwaitFailure(rm *runningMap, err error) {
	var dn *DeadNodeError
	if !errors.As(err, &dn) {
		s.fail(err)
		return
	}
	s.injectNewlyDead(dn.Nodes)
	if rm.slot >= 0 {
		// Injection did not requeue this task — only a remote peer died
		// (e.g. a degraded-read source already marked dead) — so abort
		// and requeue it explicitly.
		s.requeueRunning(rm)
	}
}

// reduceAwaitFailure handles an AwaitReduce error at a reducer's virtual
// completion instant.
func (s *state) reduceAwaitFailure(r *reducerState, err error) {
	var dn *DeadNodeError
	if !errors.As(err, &dn) {
		s.fail(err)
		return
	}
	// Reset before injecting: a backend may accept a chunk before its
	// bytes moved, so the ledger can have delivered a dead mapper's output
	// to the reducer. Reset, the reducer owes it again, and recovery runs
	// its map again.
	s.resetReducer(r.job, r)
	s.injectNewlyDead(dn.Nodes)
	// A named mapper failed earlier (a heartbeat deadline) is not injected
	// again, and its outputs were not owed when it was: re-owe them now.
	s.reexecuteLostOutputs(r.job, func(id topology.NodeID) bool { return !s.cluster.Alive(id) })
}

// deferFailure handles an error raised inside a network completion
// callback. A *DeadNodeError's nodes are injected on a zero-delay event,
// because failure injection cancels flows, which must not happen while
// the network is mid-callback; any other error aborts the run.
func (s *state) deferFailure(err error) {
	var dn *DeadNodeError
	if !errors.As(err, &dn) {
		s.fail(err)
		return
	}
	nodes := dn.Nodes
	s.eng.Schedule(0, func() { s.injectNewlyDead(nodes) })
}

// requeueRunning aborts a running map task and returns it to the
// scheduler's pending pool.
func (s *state) requeueRunning(rm *runningMap) {
	for _, f := range rm.flows { // releaseMap empties the list
		if f != nil {
			s.net.Cancel(f)
		}
	}
	// A hedged fan-in also holds pending deadline timers and a standby
	// pool; drop both so a stale timer cannot fire on the released record.
	// No EvFlowLatency is emitted for the aborted flows: a requeue is a
	// failure artifact, not a latency observation.
	s.cancelHedgeTimers(rm)
	rm.standby = nil
	s.eng.Cancel(rm.procEv)
	s.queue.MapReleased(rm.js.idx)
	if s.cluster.Alive(rm.node) {
		s.release(rm.node, &s.slaves[rm.node].freeMap, s.cluster.Node(rm.node).MapSlots)
	}
	e := s.ev(trace.EvTaskRequeue)
	e.Job = rm.js.idx
	e.Task = rm.task.Index
	e.Node = int(rm.node)
	s.emit(&e)
	rm.js.sj.Requeue(rm.task, !s.cluster.Alive(rm.task.Holder))
	s.releaseMap(rm)
}

// recoverReducers restarts reduce tasks that were running on failed nodes.
func (s *state) recoverReducers(js *jobState, dead func(topology.NodeID) bool) {
	for _, r := range js.reducers {
		if !r.launched || r.done || !dead(r.node) {
			continue
		}
		s.resetReducer(js, r)
	}
}

// resetReducer returns a launched reducer to the unassigned pool, and the
// ledger re-parks every map output still available to it. Lost outputs
// are handled by reexecuteLostOutputs.
func (s *state) resetReducer(js *jobState, r *reducerState) {
	if r.procEv != nil {
		s.eng.Cancel(r.procEv)
		r.procEv = nil
	}
	e := s.ev(trace.EvReduceReset)
	e.Job = js.idx
	e.Task = r.idx
	e.Node = int(r.node)
	s.emit(&e)
	r.launched = false
	r.started = false
	s.backend.ReduceReset(js.idx, r.idx)
	s.queue.ReduceReset(js.idx)
	if s.cluster.Alive(r.node) {
		// Reset on a live node (async backend retry): free its slot. A
		// dead node's slots are gone with it.
		s.release(r.node, &s.slaves[r.node].freeReduce, s.cluster.Node(r.node).ReduceSlots)
	}
	js.shuffle.reset(r.idx)
}

// reexecuteLostOutputs requeues completed map tasks whose outputs died
// with their node, when some unfinished reducer still needs them.
func (s *state) reexecuteLostOutputs(js *jobState, dead func(topology.NodeID) bool) {
	for mapIdx := range js.totalMaps() {
		node, lost := js.shuffle.lose(mapIdx, dead)
		if !lost {
			continue
		}
		task := js.sj.Task(mapIdx)
		js.mapsCompleted--
		e := s.ev(trace.EvTaskRequeue)
		e.Job = js.idx
		e.Task = mapIdx
		e.Node = int(node)
		s.emit(&e)
		js.sj.Requeue(task, !s.cluster.Alive(task.Holder))
	}
}
