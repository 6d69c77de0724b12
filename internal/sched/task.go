// Package sched implements the paper's three map-task scheduling
// algorithms as pure decision logic, decoupled from any execution engine:
//
//   - LocalityFirst (Algorithm 1): Hadoop's default — local tasks, then
//     remote tasks, then degraded tasks.
//   - BasicDegradedFirst (Algorithm 2): launches degraded tasks early,
//     paced so the fraction of launched degraded tasks never exceeds the
//     fraction of launched map tasks (m/M >= m_d/M_d), at most one
//     degraded task per heartbeat.
//   - EnhancedDegradedFirst (Algorithm 3): BDF plus locality preservation
//     (AssignToSlave) and rack awareness (AssignToRack).
//
// Both the discrete-event simulator (internal/mapred) and the
// real-execution engine (internal/minimr) drive these schedulers through
// the same Assign entry point, mirroring how the paper runs the same
// algorithm in simulation and on the Hadoop testbed.
package sched

import (
	"fmt"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/topology"
)

// Class is the scheduling class of an assignment, from the point of view
// of the node receiving the task.
type Class int

const (
	// ClassNodeLocal: input block stored on the assigned node.
	ClassNodeLocal Class = iota + 1
	// ClassRackLocal: input block stored in the assigned node's rack.
	ClassRackLocal
	// ClassRemote: input block stored in a different rack.
	ClassRemote
	// ClassDegraded: input block lost; requires a degraded read.
	ClassDegraded
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNodeLocal:
		return "node-local"
	case ClassRackLocal:
		return "rack-local"
	case ClassRemote:
		return "remote"
	case ClassDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass maps a Class.String() name back to its Class, for consumers
// of recorded traces.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "node-local":
		return ClassNodeLocal, true
	case "rack-local":
		return ClassRackLocal, true
	case "remote":
		return ClassRemote, true
	case "degraded":
		return ClassDegraded, true
	}
	return 0, false
}

// TaskSpec describes one map task's input before scheduling.
type TaskSpec struct {
	// Block is the input block.
	Block erasure.BlockID
	// Holder is the node storing the block.
	Holder topology.NodeID
	// Lost marks the block unavailable (holder failed): the task is a
	// degraded task.
	Lost bool
}

// Task is one map task tracked by a Job.
type Task struct {
	// Index is the task's position within its job (dense from 0).
	Index int
	// Job is the owning job's ID.
	Job int
	TaskSpec

	assigned bool
}

// Assigned reports whether the task has been handed to a node.
func (t *Task) Assigned() bool { return t.assigned }

// Job tracks the unassigned map tasks of one MapReduce job, with the
// counters the degraded-first pacing rule needs: M (total map tasks),
// Md (total degraded tasks), m (launched map tasks), md (launched
// degraded tasks).
type Job struct {
	// ID is the job identifier (FIFO order = submission order).
	ID int

	tasks    []*Task
	byHolder map[topology.NodeID][]*Task // pending non-degraded, by holder
	degraded []*Task                     // pending degraded, task order
	// pendingLocal[id] counts the unassigned tasks in byHolder[id]; every
	// pool mutation keeps it current, so EDF's per-heartbeat estimate is a
	// slice read per (node, job).
	pendingLocal []int

	total         int // M
	totalDegraded int // Md
	launched      int // m
	launchedDeg   int // md
}

// NewJob builds a job from task specs. The order of specs fixes task
// indices and the FIFO order within each class.
func NewJob(id int, specs []TaskSpec) *Job {
	j := &Job{
		ID:       id,
		byHolder: make(map[topology.NodeID][]*Task),
	}
	for i, s := range specs {
		t := &Task{Index: i, Job: id, TaskSpec: s}
		j.tasks = append(j.tasks, t)
		if s.Lost {
			j.degraded = append(j.degraded, t)
			j.totalDegraded++
		} else {
			j.byHolder[s.Holder] = append(j.byHolder[s.Holder], t)
			j.addPendingLocal(s.Holder)
		}
		j.total++
	}
	return j
}

// Totals returns (M, Md).
func (j *Job) Totals() (m, md int) { return j.total, j.totalDegraded }

// Launched returns (m, md).
func (j *Job) Launched() (m, md int) { return j.launched, j.launchedDeg }

// Done reports whether every map task has been assigned.
func (j *Job) Done() bool { return j.launched == j.total }

// PendingDegraded returns the number of unassigned degraded tasks.
func (j *Job) PendingDegraded() int { return j.totalDegraded - j.launchedDeg }

// Tasks returns all tasks in index order. The slice is shared; do not
// modify.
func (j *Job) Tasks() []*Task { return j.tasks }

// pendingLocalCount returns the number of unassigned node-local tasks for
// node id (used by EDF's AssignToSlave estimate).
func (j *Job) pendingLocalCount(id topology.NodeID) int {
	if int(id) >= len(j.pendingLocal) {
		return 0
	}
	return j.pendingLocal[id]
}

// addPendingLocal counts one more pending task on holder id, growing the
// dense table to reach it.
func (j *Job) addPendingLocal(id topology.NodeID) {
	if short := int(id) + 1 - len(j.pendingLocal); short > 0 {
		j.pendingLocal = append(j.pendingLocal, make([]int, short)...)
	}
	j.pendingLocal[id]++
}

// popNodeLocal takes the next unassigned task whose holder is exactly s.
func (j *Job) popNodeLocal(s topology.NodeID) *Task {
	return j.popFromHolder(s)
}

// popRackLocal takes the next unassigned task whose holder is an alive node
// in the given rack other than s (scanning nodes in ID order for
// determinism).
func (j *Job) popRackLocal(c *topology.Cluster, s topology.NodeID) *Task {
	for _, id := range c.RackNodes(c.RackOf(s)) {
		if id == s {
			continue
		}
		if t := j.popFromHolder(id); t != nil {
			return t
		}
	}
	return nil
}

// popRemote takes the next unassigned task whose holder is in a different
// rack from s, preferring the smallest hop distance to s (same pod before
// core-crossing) and breaking ties by task order. On one tier every
// remote holder is equally far, so the first pending remote task wins.
func (j *Job) popRemote(c *topology.Cluster, s topology.NodeID) *Task {
	myRack := c.RackOf(s)
	// The nearest a remote holder can be: one tier up, or across the
	// core link when only the root joins racks.
	nearest := 4
	if c.NumTiers() == 1 {
		nearest = 5
	}
	var best *Task
	bestDist := 0
	for _, t := range j.tasks {
		if t.assigned || t.Lost || c.RackOf(t.Holder) == myRack {
			continue
		}
		if d := c.HopDistance(s, t.Holder); best == nil || d < bestDist {
			best, bestDist = t, d
			if d == nearest {
				break // no closer task exists
			}
		}
	}
	if best != nil {
		j.take(best)
	}
	return best
}

// popDegraded takes the next unassigned degraded task.
func (j *Job) popDegraded() *Task {
	for _, t := range j.degraded {
		if !t.assigned {
			j.take(t)
			return t
		}
	}
	return nil
}

func (j *Job) popFromHolder(id topology.NodeID) *Task {
	for _, t := range j.byHolder[id] {
		if !t.assigned {
			j.take(t)
			return t
		}
	}
	return nil
}

func (j *Job) take(t *Task) {
	if t.assigned {
		panic(fmt.Sprintf("sched: task %d of job %d assigned twice", t.Index, t.Job))
	}
	t.assigned = true
	j.launched++
	if t.Lost {
		j.launchedDeg++
	} else {
		j.pendingLocal[t.Holder]--
	}
}

// MarkHolderLost reclassifies every *pending* task whose input lives on
// the failed holder as a degraded task, returning how many tasks changed.
// Used when a node fails mid-job (already-assigned tasks are handled by
// the framework via Requeue).
func (j *Job) MarkHolderLost(holder topology.NodeID) int {
	changed := 0
	kept := j.byHolder[holder][:0]
	for _, t := range j.byHolder[holder] {
		if t.assigned {
			kept = append(kept, t)
			continue
		}
		t.Lost = true
		j.degraded = append(j.degraded, t)
		j.totalDegraded++
		j.pendingLocal[holder]--
		changed++
	}
	if len(kept) == 0 {
		delete(j.byHolder, holder)
	} else {
		j.byHolder[holder] = kept
	}
	return changed
}

// Requeue returns an assigned task to the pending pool — used when its
// executing node fails mid-task (Hadoop re-runs such tasks elsewhere).
// lost reports whether the task's input block is now unavailable; the
// task's classification and the pacing counters are adjusted accordingly.
func (j *Job) Requeue(t *Task, lost bool) {
	if !t.assigned {
		panic(fmt.Sprintf("sched: requeue of unassigned task %d of job %d", t.Index, t.Job))
	}
	j.launched--
	if t.Lost {
		j.launchedDeg--
	}
	t.assigned = false
	switch {
	case t.Lost == lost:
		// Classification unchanged; the task is still in its pool.
	case lost:
		// Was normal, now degraded: move pools and grow Md.
		j.removeFromHolderPool(t)
		t.Lost = true
		j.degraded = append(j.degraded, t)
		j.totalDegraded++
	default:
		// Was degraded, input recovered: move back to its holder pool.
		j.removeFromDegradedPool(t)
		t.Lost = false
		j.byHolder[t.Holder] = append(j.byHolder[t.Holder], t)
		j.totalDegraded--
	}
	if !t.Lost {
		j.addPendingLocal(t.Holder) // pending in its holder pool again
	}
}

// Recover returns a *pending* degraded task to the normal pool with a
// new holder: the background repair subsystem rebuilt its input block
// there, so the task no longer needs a degraded read. Reports whether
// the task changed; assigned or non-degraded tasks are left alone (a
// running degraded read keeps its sources, and Requeue handles its
// reclassification if it is ever aborted).
func (j *Job) Recover(t *Task, holder topology.NodeID) bool {
	if t.assigned || !t.Lost {
		return false
	}
	j.removeFromDegradedPool(t)
	t.Lost = false
	t.Holder = holder
	j.byHolder[holder] = append(j.byHolder[holder], t)
	j.addPendingLocal(holder)
	j.totalDegraded--
	return true
}

func (j *Job) removeFromHolderPool(t *Task) {
	pool := j.byHolder[t.Holder]
	for i, p := range pool {
		if p == t {
			j.byHolder[t.Holder] = append(pool[:i], pool[i+1:]...)
			return
		}
	}
}

func (j *Job) removeFromDegradedPool(t *Task) {
	for i, p := range j.degraded {
		if p == t {
			j.degraded = append(j.degraded[:i], j.degraded[i+1:]...)
			return
		}
	}
}
