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
	"slices"

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
//
// Its pools are indexes, so a pop costs no scan over assigned tasks:
// every non-degraded task sits in its holder's queue and every degraded
// one in the degraded queue, each in pool order with a cursor past the
// assigned tasks at its front. On its first remote pop a job also files
// its non-degraded tasks by rack in task order, so a remote pop reads one
// first pending task per rack.
type Job struct {
	// ID is the job identifier (FIFO order = submission order).
	ID int

	tasks    []Task  // index order, one slab
	byHolder []queue // by holder node: its non-degraded tasks
	degraded queue
	byRack   *rackQueues
	// pendingLocal[id] counts the unassigned tasks in byHolder's queue id;
	// every pool mutation keeps it current, so EDF's per-heartbeat estimate
	// is a slice read per (node, job).
	pendingLocal []int32

	total         int // M
	totalDegraded int // Md
	launched      int // m
	launchedDeg   int // md
}

// NewJob builds a job from task specs. The order of specs fixes task
// indices and the FIFO order within each class.
func NewJob(id int, specs []TaskSpec) *Job {
	j := &Job{ID: id, tasks: make([]Task, len(specs)), total: len(specs)}
	holders := 0
	for i, s := range specs {
		j.tasks[i] = Task{Index: i, Job: id, TaskSpec: s}
		if s.Lost {
			j.totalDegraded++
		} else {
			holders = max(holders, int(s.Holder)+1)
		}
	}
	// The queues are views of one array, each with room for exactly its
	// first entries: filling them allocates nothing, and a queue that
	// grows past its room later moves out on its own.
	j.byHolder = make([]queue, holders)
	j.pendingLocal = make([]int32, holders)
	for _, s := range specs {
		if !s.Lost {
			j.pendingLocal[s.Holder]++
		}
	}
	items := make([]int32, len(specs))
	at := 0
	for h, n := range j.pendingLocal {
		j.byHolder[h].items = items[at : at : at+int(n)]
		at += int(n)
	}
	j.degraded.items = items[at:at]
	for i, s := range specs {
		if s.Lost {
			j.degraded.items = append(j.degraded.items, int32(i))
		} else {
			q := &j.byHolder[s.Holder]
			q.items = append(q.items, int32(i))
		}
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

// Task returns the task of index i.
func (j *Job) Task(i int) *Task { return &j.tasks[i] }

// pendingLocalCount returns the number of unassigned node-local tasks for
// node id (used by EDF's AssignToSlave estimate).
func (j *Job) pendingLocalCount(id topology.NodeID) int {
	if int(id) >= len(j.pendingLocal) {
		return 0
	}
	return int(j.pendingLocal[id])
}

// holderQueue returns holder id's queue, growing the dense per-holder
// tables to reach it.
func (j *Job) holderQueue(id topology.NodeID) *queue {
	if short := int(id) + 1 - len(j.pendingLocal); short > 0 {
		j.pendingLocal = append(j.pendingLocal, make([]int32, short)...)
		j.byHolder = append(j.byHolder, make([]queue, short)...)
	}
	return &j.byHolder[id]
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
// Every holder of a rack is equally far from s, so only each rack's first
// pending task is a candidate.
func (j *Job) popRemote(c *topology.Cluster, s topology.NodeID) *Task {
	if j.total-j.totalDegraded == j.launched-j.launchedDeg {
		return nil // every non-degraded task is assigned
	}
	if j.byRack == nil {
		j.byRack = newRackQueues(j, c)
	}
	mine := c.RackOf(s)
	best, bestDist := int32(noTask), 0
	for r := range j.byRack.queues {
		if topology.RackID(r) == mine {
			continue
		}
		x := j.byRack.queues[r].first(j.tasks)
		if x == noTask {
			continue
		}
		if d := c.HopDistance(s, j.tasks[x].Holder); best == noTask || d < bestDist || d == bestDist && x < best {
			best, bestDist = x, d
		}
	}
	if best == noTask {
		return nil
	}
	t := &j.tasks[best]
	j.take(t)
	return t
}

// popDegraded takes the next unassigned degraded task.
func (j *Job) popDegraded() *Task {
	return j.pop(&j.degraded)
}

func (j *Job) popFromHolder(id topology.NodeID) *Task {
	if int(id) >= len(j.pendingLocal) || j.pendingLocal[id] == 0 {
		return nil
	}
	return j.pop(&j.byHolder[id])
}

// pop takes q's first unassigned task, if any.
func (j *Job) pop(q *queue) *Task {
	x := q.first(j.tasks)
	if x == noTask {
		return nil
	}
	t := &j.tasks[x]
	j.take(t)
	return t
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
	if int(holder) >= len(j.pendingLocal) || j.pendingLocal[holder] == 0 {
		return 0
	}
	changed := 0
	for _, x := range j.byHolder[holder].dropPending(j.tasks) {
		t := &j.tasks[x]
		t.Lost = true
		j.degraded.items = append(j.degraded.items, x)
		j.byRack.remove(t)
		j.totalDegraded++
		changed++
	}
	j.pendingLocal[holder] = 0
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
	x := int32(t.Index)
	switch {
	case t.Lost && lost:
		// Classification unchanged; the task is still in its pool.
		j.degraded.rewind(x)
	case !t.Lost && !lost:
		j.holderQueue(t.Holder).rewind(x)
		j.byRack.rewind(t)
	case lost:
		// Was normal, now degraded: move pools and grow Md.
		j.holderQueue(t.Holder).remove(x)
		j.byRack.remove(t)
		t.Lost = true
		j.degraded.items = append(j.degraded.items, x)
		j.totalDegraded++
	default:
		// Was degraded, input recovered: move back to its holder pool.
		j.degraded.remove(x)
		t.Lost = false
		q := j.holderQueue(t.Holder)
		q.items = append(q.items, x)
		j.byRack.insert(t)
		j.totalDegraded--
	}
	if !t.Lost {
		j.pendingLocal[t.Holder]++ // pending in its holder pool again
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
	x := int32(t.Index)
	j.degraded.remove(x)
	t.Lost = false
	t.Holder = holder
	q := j.holderQueue(holder)
	q.items = append(q.items, x)
	j.pendingLocal[holder]++
	j.byRack.insert(t)
	j.totalDegraded--
	return true
}

// noTask is an empty queue's first task.
const noTask = -1

// queue is one pool of task indices in pool order, with a cursor: every
// task before items[head] is assigned, so a pop resumes where the last one
// stopped.
type queue struct {
	items []int32
	head  int
}

// first moves the cursor past assigned tasks and returns the task it stops
// at, or noTask.
func (q *queue) first(tasks []Task) int32 {
	for q.head < len(q.items) && tasks[q.items[q.head]].assigned {
		q.head++
	}
	if q.head == len(q.items) {
		return noTask
	}
	return q.items[q.head]
}

// rewind moves the cursor back to task x, which is pending again.
func (q *queue) rewind(x int32) {
	if i := slices.Index(q.items[:q.head], x); i >= 0 {
		q.head = i
	}
}

// remove deletes task x.
func (q *queue) remove(x int32) {
	i := slices.Index(q.items, x)
	q.items = slices.Delete(q.items, i, i+1)
	if i < q.head {
		q.head--
	}
}

// insert files pending task x into a queue in ascending task order,
// keeping that order.
func (q *queue) insert(x int32) {
	i, _ := slices.BinarySearch(q.items, x)
	q.items = slices.Insert(q.items, i, x)
	q.head = min(q.head, i)
}

// dropPending deletes the unassigned tasks, keeping the assigned ones in
// order, and returns the deleted ones in queue order.
func (q *queue) dropPending(tasks []Task) []int32 {
	var dropped []int32
	kept := q.head
	for _, x := range q.items[q.head:] {
		if tasks[x].assigned {
			q.items[kept] = x
			kept++
		} else {
			dropped = append(dropped, x)
		}
	}
	q.items, q.head = q.items[:kept], kept
	return dropped
}

// rackQueues files a job's non-degraded tasks by their holder's rack, in
// ascending task order.
type rackQueues struct {
	c      *topology.Cluster
	queues []queue
}

func newRackQueues(j *Job, c *topology.Cluster) *rackQueues {
	count := make([]int, c.NumRacks())
	for i := range j.tasks {
		if t := &j.tasks[i]; !t.Lost {
			count[c.RackOf(t.Holder)]++
		}
	}
	items := make([]int32, len(j.tasks)-j.totalDegraded)
	rq := &rackQueues{c: c, queues: make([]queue, c.NumRacks())}
	at := 0
	for r, n := range count {
		rq.queues[r].items = items[at : at : at+n]
		at += n
	}
	for i := range j.tasks {
		if t := &j.tasks[i]; !t.Lost {
			q := &rq.queues[c.RackOf(t.Holder)]
			q.items = append(q.items, int32(i))
		}
	}
	return rq
}

// The methods below keep the queues current through the job's pool
// changes; before the job's first remote pop there are none, and they do
// nothing.

// remove drops t, which leaves the non-degraded pool.
func (rq *rackQueues) remove(t *Task) {
	if rq != nil {
		rq.queues[rq.c.RackOf(t.Holder)].remove(int32(t.Index))
	}
}

// insert files t, which joins the non-degraded pool pending.
func (rq *rackQueues) insert(t *Task) {
	if rq != nil {
		rq.queues[rq.c.RackOf(t.Holder)].insert(int32(t.Index))
	}
}

// rewind makes t, which is pending again, visible to remote pops.
func (rq *rackQueues) rewind(t *Task) {
	if rq != nil {
		rq.queues[rq.c.RackOf(t.Holder)].rewind(int32(t.Index))
	}
}
