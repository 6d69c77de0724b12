package sched

import (
	"fmt"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// refJob is Job's pending pools as they were before they became indexes:
// a map of holder pools and a degraded list, each scanned from its front
// past assigned tasks, and a remote pop that walks every task of the job.
// It is the oracle the indexed pools must match pop for pop.
type refJob struct {
	tasks    []*Task
	byHolder map[topology.NodeID][]*Task
	degraded []*Task
}

func newRefJob(id int, specs []TaskSpec) *refJob {
	j := &refJob{byHolder: make(map[topology.NodeID][]*Task)}
	for i, s := range specs {
		t := &Task{Index: i, Job: id, TaskSpec: s}
		j.tasks = append(j.tasks, t)
		if s.Lost {
			j.degraded = append(j.degraded, t)
		} else {
			j.byHolder[s.Holder] = append(j.byHolder[s.Holder], t)
		}
	}
	return j
}

func (j *refJob) popFromHolder(id topology.NodeID) *Task {
	for _, t := range j.byHolder[id] {
		if !t.assigned {
			t.assigned = true
			return t
		}
	}
	return nil
}

func (j *refJob) popRackLocal(c *topology.Cluster, s topology.NodeID) *Task {
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

// popRemote is the every-task scan: the nearest pending remote task by hop
// distance, ties broken by task order.
func (j *refJob) popRemote(c *topology.Cluster, s topology.NodeID) *Task {
	myRack := c.RackOf(s)
	var best *Task
	bestDist := 0
	for _, t := range j.tasks {
		if t.assigned || t.Lost || c.RackOf(t.Holder) == myRack {
			continue
		}
		if d := c.HopDistance(s, t.Holder); best == nil || d < bestDist {
			best, bestDist = t, d
		}
	}
	if best != nil {
		best.assigned = true
	}
	return best
}

func (j *refJob) popDegraded() *Task {
	for _, t := range j.degraded {
		if !t.assigned {
			t.assigned = true
			return t
		}
	}
	return nil
}

func (j *refJob) markHolderLost(holder topology.NodeID) int {
	changed := 0
	kept := j.byHolder[holder][:0]
	for _, t := range j.byHolder[holder] {
		if t.assigned {
			kept = append(kept, t)
			continue
		}
		t.Lost = true
		j.degraded = append(j.degraded, t)
		changed++
	}
	j.byHolder[holder] = kept
	return changed
}

func (j *refJob) requeue(t *Task, lost bool) {
	t.assigned = false
	switch {
	case t.Lost == lost:
	case lost:
		j.byHolder[t.Holder] = remove(j.byHolder[t.Holder], t)
		t.Lost = true
		j.degraded = append(j.degraded, t)
	default:
		j.degraded = remove(j.degraded, t)
		t.Lost = false
		j.byHolder[t.Holder] = append(j.byHolder[t.Holder], t)
	}
}

func (j *refJob) recover(t *Task, holder topology.NodeID) bool {
	if t.assigned || !t.Lost {
		return false
	}
	j.degraded = remove(j.degraded, t)
	t.Lost = false
	t.Holder = holder
	j.byHolder[holder] = append(j.byHolder[holder], t)
	return true
}

func (j *refJob) pendingLocal(id topology.NodeID) int {
	n := 0
	for _, t := range j.byHolder[id] {
		if !t.assigned {
			n++
		}
	}
	return n
}

func remove(pool []*Task, t *Task) []*Task {
	for i, p := range pool {
		if p == t {
			return append(pool[:i], pool[i+1:]...)
		}
	}
	panic(fmt.Sprintf("sched: task %d not in its pool", t.Index))
}

// randomSchedCluster is a two-level cluster with uneven racks or a fat
// tree, so remote pops see one tier and three.
func randomSchedCluster(rng *stats.RNG) *topology.Cluster {
	if rng.Intn(2) == 0 {
		spec, err := topology.FatTree(topology.FatTreeConfig{
			Pods: 1 + rng.Intn(3), EdgesPerPod: 1 + rng.Intn(3), NodesPerEdge: 1 + rng.Intn(4), NodeBps: 1,
		})
		if err != nil {
			panic(err)
		}
		return topology.MustNew(topology.Config{Spec: &spec, MapSlotsPerNode: 1})
	}
	racks := 1 + rng.Intn(6)
	sizes := make([]int, racks)
	nodes := 0
	for r := range sizes {
		sizes[r] = 1 + rng.Intn(5)
		nodes += sizes[r]
	}
	return topology.MustNew(topology.Config{Nodes: nodes, Racks: racks, RackSizes: sizes, MapSlotsPerNode: 1})
}

// TestPoolsMatchScanOracle drives a Job and the scanning refJob through the
// same seeded operation sequences — node-local, rack-local, remote and
// degraded pops from random nodes, Requeue into either class,
// MarkHolderLost and Recover, before and after the first remote pop files
// the rack queues — and checks that every step returns the same task and
// leaves the same counters.
func TestPoolsMatchScanOracle(t *testing.T) {
	rng := stats.NewRNG(52)
	idx := func(t *Task) int {
		if t == nil {
			return -1
		}
		return t.Index
	}
	for trial := 0; trial < 300; trial++ {
		c := randomSchedCluster(rng)
		nodes := c.NumNodes()
		specs := make([]TaskSpec, rng.Intn(40))
		for i := range specs {
			specs[i] = TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(rng.Intn(nodes)), Lost: rng.Intn(6) == 0}
		}
		j, ref := NewJob(trial, specs), newRefJob(trial, specs)
		for step := 0; step < 120; step++ {
			node := topology.NodeID(rng.Intn(nodes))
			var op string
			var got, want int
			switch k := rng.Intn(9); k {
			case 0, 1:
				op, got, want = "node-local pop", idx(j.popNodeLocal(node)), idx(ref.popFromHolder(node))
			case 2:
				op, got, want = "rack-local pop", idx(j.popRackLocal(c, node)), idx(ref.popRackLocal(c, node))
			case 3, 4:
				op, got, want = "remote pop", idx(j.popRemote(c, node)), idx(ref.popRemote(c, node))
			case 5:
				op, got, want = "degraded pop", idx(j.popDegraded()), idx(ref.popDegraded())
			case 6:
				if len(specs) == 0 {
					continue
				}
				i, lost := rng.Intn(len(specs)), rng.Intn(2) == 0
				if !j.Task(i).assigned {
					continue
				}
				op = fmt.Sprintf("requeue %d lost=%v", i, lost)
				j.Requeue(j.Task(i), lost)
				ref.requeue(ref.tasks[i], lost)
			case 7:
				op, got, want = fmt.Sprintf("holder %d lost", node), j.MarkHolderLost(node), ref.markHolderLost(node)
			case 8:
				if len(specs) == 0 {
					continue
				}
				i := rng.Intn(len(specs))
				op = fmt.Sprintf("recover %d on %d", i, node)
				b2i := map[bool]int{false: 0, true: 1}
				got, want = b2i[j.Recover(j.Task(i), node)], b2i[ref.recover(ref.tasks[i], node)]
			}
			if got != want {
				t.Fatalf("trial %d (%d nodes, %d tiers) step %d, %s: got %d, oracle %d", trial, nodes, c.NumTiers(), step, op, got, want)
			}
			for i, rt := range ref.tasks {
				if jt := j.Task(i); jt.assigned != rt.assigned || jt.Lost != rt.Lost || jt.Holder != rt.Holder {
					t.Fatalf("trial %d step %d, %s: task %d is %+v, oracle %+v", trial, step, op, i, *jt, *rt)
				}
			}
			for id := topology.NodeID(0); int(id) < nodes; id++ {
				if got, want := j.pendingLocalCount(id), ref.pendingLocal(id); got != want {
					t.Fatalf("trial %d step %d, %s: node %d has %d pending local tasks, oracle %d", trial, step, op, id, got, want)
				}
			}
		}
	}
}
