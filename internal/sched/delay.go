package sched

import "degradedfirst/internal/topology"

// DelayScheduling is the fair/locality scheduler of Zaharia et al.
// (EuroSys 2010), cited as related work [35] by the paper: when the
// head-of-line job has no local task for the requesting slave, the job is
// skipped — it waits for a slave with local data — for up to D scheduling
// opportunities before it is allowed to launch a non-local (remote or
// degraded) task. It is provided as an additional baseline: like LF it is
// oblivious to degraded tasks, so in failure mode it still bunches
// degraded reads at the end of the map phase.
//
// Construct one instance per run with NewDelayScheduling.
type DelayScheduling struct {
	// maxSkips is D: how many opportunities a job forgoes waiting for
	// locality before accepting non-local tasks.
	maxSkips int
	// skips counts consecutive skipped opportunities per job ID.
	skips map[int]int
}

// NewDelayScheduling returns a delay scheduler that waits up to maxSkips
// scheduling opportunities for locality.
func NewDelayScheduling(maxSkips int) *DelayScheduling {
	if maxSkips < 0 {
		maxSkips = 0
	}
	return &DelayScheduling{maxSkips: maxSkips, skips: make(map[int]int)}
}

// Assign implements Scheduler.
func (d *DelayScheduling) Assign(env *Env, hb Heartbeat) []Assignment {
	out := env.assigned[:0]
	free := hb.FreeMapSlots
	for _, j := range env.Jobs {
		for free > 0 {
			t := d.popWithDelay(env, j, hb.Node)
			if t == nil {
				break // job waits (or is exhausted); consider the next job
			}
			out = append(out, Assignment{Task: t, Class: classify(env.Cluster, t, hb.Node)})
			free--
		}
		if free == 0 {
			break
		}
	}
	env.assigned = out
	return out
}

// popWithDelay takes a local task if available; otherwise the job skips
// this opportunity until it has waited maxSkips times, after which it
// accepts a remote then degraded task (and the skip counter resets).
func (d *DelayScheduling) popWithDelay(env *Env, j *Job, node topology.NodeID) *Task {
	if t := j.popNodeLocal(node); t != nil {
		d.skips[j.ID] = 0
		return t
	}
	if t := j.popRackLocal(env.Cluster, node); t != nil {
		d.skips[j.ID] = 0
		return t
	}
	if j.Done() {
		return nil
	}
	if d.skips[j.ID] < d.maxSkips {
		d.skips[j.ID]++
		return nil
	}
	// Patience exhausted: accept non-local work. A job not Done has a
	// task pending, and one neither local nor remote is degraded.
	t := j.popRemote(env.Cluster, node)
	if t == nil {
		t = j.popDegraded()
	}
	d.skips[j.ID] = 0
	return t
}

var _ Scheduler = (*DelayScheduling)(nil)
