package runtime

import (
	"sort"

	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Builder folds a single run's trace stream into a Result. The runtime
// feeds it live (Result metrics are trace consumers, not ad-hoc
// bookkeeping), and fed a recorded trace — e.g. one read back from a
// JSONL file — it rebuilds the identical Result: virtual times and
// byte counts survive the JSON round-trip exactly, and BytesMoved is
// re-accumulated in the original event order.
type Builder struct {
	res    Result
	failed map[topology.NodeID]bool
	// reduceLaunch remembers each reducer's latest launch time until its
	// finish event appends the ReduceRecord.
	reduceLaunch map[[2]int]float64
	// launched tracks map tasks with a live launch (set on EvTaskLaunch,
	// cleared on EvTaskRequeue). Degraded-read events pair with the
	// latest launch only: without this guard, an EvDegradedDone straggling
	// after a requeue would be measured against the zeroed record's
	// LaunchTime and yield a bogus read time.
	launched map[[2]int]bool
	// repairPending tracks each queued stripe's lost-block count;
	// repairLost is their running sum plus the losses of unrepairable
	// stripes — the at-risk timeline's value.
	repairPending map[repair.Key]int
	repairUnrep   map[repair.Key]int
	repairLost    int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		failed:        make(map[topology.NodeID]bool),
		reduceLaunch:  make(map[[2]int]float64),
		launched:      make(map[[2]int]bool),
		repairPending: make(map[repair.Key]int),
		repairUnrep:   make(map[repair.Key]int),
	}
}

func (b *Builder) job(idx int) *JobResult {
	if idx < 0 || idx >= len(b.res.Jobs) {
		return nil
	}
	return &b.res.Jobs[idx]
}

func (b *Builder) task(job, task int) *TaskRecord {
	jr := b.job(job)
	if jr == nil || task < 0 || task >= len(jr.Tasks) {
		return nil
	}
	return &jr.Tasks[task]
}

// Consume folds one event. Events that don't shape the Result (heartbeats,
// scheduling decisions, transfer starts) are ignored.
func (b *Builder) Consume(e trace.Event) {
	switch e.Type {
	case trace.EvRunStart:
		b.res.Scheduler = e.Name
	case trace.EvNodeFail:
		b.failed[topology.NodeID(e.Node)] = true
	case trace.EvJobSubmit:
		for len(b.res.Jobs) <= e.Job {
			b.res.Jobs = append(b.res.Jobs, JobResult{})
		}
		b.res.Jobs[e.Job] = JobResult{
			Name:           e.Name,
			SubmitTime:     e.T,
			QueueDelay:     -1,
			FirstMapLaunch: -1,
			Tasks:          make([]TaskRecord, e.N),
		}
	case trace.EvJobQueued:
		if jr := b.job(e.Job); jr != nil {
			jr.Tenant = e.Name
		}
	case trace.EvJobGrant:
		if jr := b.job(e.Job); jr != nil {
			jr.QueueDelay = e.T - jr.SubmitTime
		}
	case trace.EvTaskLaunch:
		jr := b.job(e.Job)
		rec := b.task(e.Job, e.Task)
		if jr == nil || rec == nil {
			return
		}
		if jr.FirstMapLaunch < 0 {
			jr.FirstMapLaunch = e.T
		}
		class, _ := sched.ParseClass(e.Class)
		*rec = TaskRecord{
			Job:        e.Job,
			Task:       e.Task,
			Class:      class,
			Node:       topology.NodeID(e.Node),
			LaunchTime: e.T,
		}
		b.launched[[2]int{e.Job, e.Task}] = true
	case trace.EvDegradedDone:
		if rec := b.task(e.Job, e.Task); rec != nil && b.launched[[2]int{e.Job, e.Task}] {
			rec.DegradedReadTime = e.T - rec.LaunchTime
		}
	case trace.EvFlowLatency:
		rec := b.task(e.Job, e.Task)
		if rec == nil || !b.launched[[2]int{e.Job, e.Task}] {
			return
		}
		switch e.Class {
		case "won":
			rec.FlowLatencies = append(rec.FlowLatencies, e.Dur)
		case "lost":
			rec.WastedBytes += e.Bytes
			b.res.WastedBytes += e.Bytes
		}
	case trace.EvTaskFinish:
		if rec := b.task(e.Job, e.Task); rec != nil {
			rec.FinishTime = e.T
		}
	case trace.EvTaskRequeue:
		jr := b.job(e.Job)
		rec := b.task(e.Job, e.Task)
		if jr == nil || rec == nil {
			return
		}
		if rec.FinishTime > 0 {
			// A completed map is re-executed: the map phase reopens.
			jr.MapPhaseEnd = 0
		}
		*rec = TaskRecord{Job: e.Job, Task: e.Task}
		delete(b.launched, [2]int{e.Job, e.Task})
	case trace.EvMapPhaseEnd:
		if jr := b.job(e.Job); jr != nil {
			jr.MapPhaseEnd = e.T
		}
	case trace.EvReduceLaunch:
		b.reduceLaunch[[2]int{e.Job, e.Task}] = e.T
	case trace.EvReduceReset:
		delete(b.reduceLaunch, [2]int{e.Job, e.Task})
	case trace.EvReduceFinish:
		if jr := b.job(e.Job); jr != nil {
			jr.Reduces = append(jr.Reduces, ReduceRecord{
				Job:        e.Job,
				Index:      e.Task,
				Node:       topology.NodeID(e.Node),
				LaunchTime: b.reduceLaunch[[2]int{e.Job, e.Task}],
				FinishTime: e.T,
			})
		}
	case trace.EvJobFinish:
		if jr := b.job(e.Job); jr != nil {
			jr.FinishTime = e.T
		}
	case trace.EvTransferEnd:
		b.res.BytesMoved += e.Bytes
	case trace.EvRepairQueued:
		st := b.repairStats()
		key := repair.Key{File: e.Name, Stripe: e.Task}
		switch e.Class {
		case "unrepairable":
			if _, ok := b.repairUnrep[key]; !ok {
				st.Unrepairable++
			}
			if prev, ok := b.repairPending[key]; ok {
				b.repairLost -= prev
				delete(b.repairPending, key)
			}
			b.repairLost += e.N - b.repairUnrep[key]
			b.repairUnrep[key] = e.N
		default: // "scan" or "requeue": refresh the stripe's lost count
			if _, ok := b.repairPending[key]; !ok {
				st.StripesQueued++
			}
			b.repairLost += e.N - b.repairPending[key]
			b.repairPending[key] = e.N
		}
		b.pushAtRisk(e.T)
	case trace.EvRepairDone:
		st := b.repairStats()
		st.BlocksRepaired++
		if e.Class == "local" {
			st.LocalRepairs++
		} else {
			st.GlobalRepairs++
		}
		st.RepairBytes += e.Bytes
		if st.FirstRepairAt < 0 {
			st.FirstRepairAt = e.T
		}
		key := repair.Key{File: e.Name, Stripe: e.Task}
		if n, ok := b.repairPending[key]; ok {
			b.repairLost--
			if n <= 1 {
				delete(b.repairPending, key)
			} else {
				b.repairPending[key] = n - 1
			}
		}
		if b.repairLost == 0 {
			st.FullRedundancyAt = e.T
		}
		b.pushAtRisk(e.T)
	}
}

// repairStats returns the lazily-allocated repair aggregate: it exists
// exactly when the run emitted repair events.
func (b *Builder) repairStats() *RepairStats {
	if b.res.Repair == nil {
		b.res.Repair = &RepairStats{FirstRepairAt: -1, FullRedundancyAt: -1}
	}
	return b.res.Repair
}

// pushAtRisk appends a timeline point when the known lost-block count
// changed (or the timeline is empty).
func (b *Builder) pushAtRisk(t float64) {
	st := b.repairStats()
	if n := len(st.AtRisk); n > 0 && st.AtRisk[n-1].Lost == b.repairLost {
		return
	}
	st.AtRisk = append(st.AtRisk, AtRiskPoint{T: t, Lost: b.repairLost})
}

// Result returns the folded Result. Call once, after the run's last event.
func (b *Builder) Result() *Result {
	if len(b.failed) > 0 {
		ids := make([]topology.NodeID, 0, len(b.failed))
		for id := range b.failed {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		b.res.Failed = ids
	}
	b.res.Makespan = 0
	for i := range b.res.Jobs {
		if ft := b.res.Jobs[i].FinishTime; ft > b.res.Makespan {
			b.res.Makespan = ft
		}
	}
	if st := b.res.Repair; st != nil {
		// Full redundancy is only reached when every repairable stripe
		// healed and nothing is beyond repair.
		if len(b.repairUnrep) > 0 || len(b.repairPending) > 0 {
			st.FullRedundancyAt = -1
		}
	}
	return &b.res
}
