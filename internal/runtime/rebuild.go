package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
//
// It also owns the stream's grammar (DESIGN §3): indices in range, every
// interval closed exactly once, attempt events on the live attempt only,
// nothing landing on a failed node, nothing open at run-end. It keeps the
// first violation, with its event, and Result returns it.
type Builder struct {
	res  Result
	jobs []jobTrace
	// open is a bitset of the open flows, by flow ID, and flows counts the
	// IDs seen: netsim numbers flows densely from 0, so a transfer-start
	// names the next ID.
	open  []uint64
	flows int
	// repairOpen counts each stripe's launched, uncommitted blocks.
	repairOpen map[repair.Key]int
	// repairPending tracks each queued stripe's lost-block count;
	// repairLost is their running sum plus the losses of unrepairable
	// stripes: full redundancy is reached when it falls to zero.
	repairPending map[repair.Key]int
	repairUnrep   map[repair.Key]int
	repairLost    int

	started, ended bool
	seq            int // events consumed
	err            error
}

// jobTrace is one submitted job's map tasks and reducers.
type jobTrace struct {
	submitted, finished bool
	maps, reduces       []span
}

// span is where a map task or reducer stands: idle (never launched, or
// requeued or reset), live since at, or done.
type span struct {
	live, done bool
	at         float64
}

func isLive(s span) bool { return s.live }

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		repairOpen:    make(map[repair.Key]int),
		repairPending: make(map[repair.Key]int),
		repairUnrep:   make(map[repair.Key]int),
	}
}

// Consume folds one event. Events that shape neither the Result nor the
// grammar (heartbeats, idle slots, wire events) are ignored.
func (b *Builder) Consume(e *trace.Event) {
	b.seq++
	if err := b.fold(e); err != nil && b.err == nil {
		b.err = fmt.Errorf("trace event %d (%s at t=%v): %w", b.seq, e.Type, e.T, err)
	}
}

// fold applies one event and returns the rule it breaks, if any.
func (b *Builder) fold(e *trace.Event) error {
	switch e.Type {
	case trace.EvTaskLaunch, trace.EvMapStart, trace.EvTaskFinish,
		trace.EvReduceLaunch, trace.EvReduceStart, trace.EvReduceFinish:
		if b.isFailed(e.Node) {
			return fmt.Errorf("node %d has failed", e.Node)
		}
	}
	switch e.Type {
	case trace.EvRunStart:
		if b.started {
			return errors.New("a second run-start")
		}
		b.started = true
		b.res.Scheduler = e.Name
	case trace.EvRunEnd:
		if !b.started || b.ended {
			return errors.New("no open run")
		}
		b.ended = true
		return b.openAtEnd()
	case trace.EvNodeFail:
		i, found := slices.BinarySearch(b.res.Failed, topology.NodeID(e.Node))
		if e.Node < 0 || found {
			return fmt.Errorf("node %d is not a live node", e.Node)
		}
		b.res.Failed = slices.Insert(b.res.Failed, i, topology.NodeID(e.Node))
	case trace.EvJobSubmit:
		if e.Job < 0 || e.N < 0 {
			return fmt.Errorf("job %d of %d maps is out of range", e.Job, e.N)
		}
		for len(b.jobs) <= e.Job {
			b.jobs = append(b.jobs, jobTrace{})
			b.res.Jobs = append(b.res.Jobs, JobResult{})
		}
		if b.jobs[e.Job].submitted {
			return fmt.Errorf("job %d submitted twice", e.Job)
		}
		b.jobs[e.Job] = jobTrace{submitted: true, maps: make([]span, e.N)}
		b.res.Jobs[e.Job] = JobResult{
			Name:           e.Name,
			SubmitTime:     e.T,
			QueueDelay:     -1,
			FirstMapLaunch: -1,
			Tasks:          make([]TaskRecord, e.N),
		}
	case trace.EvJobQueued, trace.EvJobGrant, trace.EvMapPhaseEnd, trace.EvJobFinish:
		jt, err := b.job(e.Job)
		if err != nil {
			return err
		}
		jr := &b.res.Jobs[e.Job]
		switch e.Type {
		case trace.EvJobQueued:
			jr.Tenant = e.Name
		case trace.EvJobGrant:
			jr.QueueDelay = e.T - jr.SubmitTime
		case trace.EvMapPhaseEnd:
			jr.MapPhaseEnd = e.T
		default:
			if jt.finished {
				return fmt.Errorf("job %d finished twice", e.Job)
			}
			jt.finished = true
			jr.FinishTime = e.T
			b.res.Makespan = max(b.res.Makespan, e.T)
		}
	case trace.EvTaskLaunch, trace.EvDegradedPlan, trace.EvFlowLatency,
		trace.EvHedgeLaunch, trace.EvMapStart, trace.EvTaskFinish, trace.EvTaskRequeue:
		rec, st, err := b.task(e)
		if err != nil {
			return err
		}
		switch {
		case e.Type == trace.EvTaskLaunch:
			if st.live || st.done {
				return fmt.Errorf("job %d task %d launched again without a requeue", e.Job, e.Task)
			}
			*st = span{live: true, at: e.T}
			if jr := &b.res.Jobs[e.Job]; jr.FirstMapLaunch < 0 {
				jr.FirstMapLaunch = e.T
			}
			class, _ := sched.ParseClass(e.Class)
			*rec = TaskRecord{
				Task:       e.Task,
				Class:      class,
				Node:       topology.NodeID(e.Node),
				LaunchTime: e.T,
			}
		case e.Type == trace.EvTaskRequeue:
			if !st.live && !st.done {
				return fmt.Errorf("job %d task %d has neither a live attempt nor an output to lose", e.Job, e.Task)
			}
			if st.done {
				// A completed map is re-executed: the map phase reopens.
				b.res.Jobs[e.Job].MapPhaseEnd = 0
			}
			*st = span{}
			*rec = TaskRecord{Task: e.Task}
		case !st.live:
			return fmt.Errorf("job %d task %d has no live attempt", e.Job, e.Task)
		case e.Type == trace.EvMapStart && rec.Class == sched.ClassDegraded:
			rec.DegradedReadTime = e.T - rec.LaunchTime
		case e.Type == trace.EvFlowLatency && e.Class == "won":
			rec.FlowLatencies = append(rec.FlowLatencies, e.Dur)
		case e.Type == trace.EvFlowLatency && e.Class == "lost":
			b.res.WastedBytes += e.Bytes
		case e.Type == trace.EvTaskFinish:
			*st = span{done: true}
			rec.FinishTime = e.T
		}
	case trace.EvReduceLaunch, trace.EvReduceStart, trace.EvReduceFinish, trace.EvReduceReset:
		jt, err := b.job(e.Job)
		if err != nil {
			return err
		}
		if e.Type == trace.EvReduceLaunch {
			// The master takes a job's unlaunched reducers in index order,
			// so a first launch names the next index.
			if e.Task < 0 || e.Task > len(jt.reduces) {
				return fmt.Errorf("job %d has no reducer %d", e.Job, e.Task)
			}
			if e.Task == len(jt.reduces) {
				jt.reduces = append(jt.reduces, span{})
			}
			if r := jt.reduces[e.Task]; r.live || r.done {
				return fmt.Errorf("job %d reducer %d launched while open or done", e.Job, e.Task)
			}
			jt.reduces[e.Task] = span{live: true, at: e.T}
			return nil
		}
		if e.Task < 0 || e.Task >= len(jt.reduces) || !jt.reduces[e.Task].live {
			return fmt.Errorf("job %d reducer %d has no open reduce-launch", e.Job, e.Task)
		}
		r := &jt.reduces[e.Task]
		if e.Type == trace.EvReduceStart {
			return nil
		}
		if e.Type == trace.EvReduceFinish {
			jr := &b.res.Jobs[e.Job]
			jr.Reduces = append(jr.Reduces, ReduceRecord{
				Index:      e.Task,
				Node:       topology.NodeID(e.Node),
				LaunchTime: r.at,
				FinishTime: e.T,
			})
		}
		*r = span{done: e.Type == trace.EvReduceFinish}
	case trace.EvTransferStart:
		if e.N != b.flows {
			return fmt.Errorf("flow %d is not the next flow ID %d", e.N, b.flows)
		}
		if b.flows%64 == 0 {
			b.open = append(b.open, 0)
		}
		b.open[e.N/64] |= 1 << (e.N % 64)
		b.flows++
	case trace.EvTransferEnd, trace.EvTransferCancel:
		if e.N < 0 || e.N >= b.flows || b.open[e.N/64]&(1<<(e.N%64)) == 0 {
			return fmt.Errorf("flow %d is not open", e.N)
		}
		b.open[e.N/64] &^= 1 << (e.N % 64)
		if e.Type == trace.EvTransferEnd {
			b.res.BytesMoved += e.Bytes
			if b.isFailed(e.Src) || b.isFailed(e.Dst) {
				return fmt.Errorf("flow %d finished with a failed end", e.N)
			}
		}
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
		if e.Class == "requeue" {
			// A failure cancelled the stripe's repair: its launches close.
			if b.repairOpen[key] == 0 {
				return fmt.Errorf("%s requeued with no open repair-launch", key)
			}
			delete(b.repairOpen, key)
		}
	case trace.EvRepairLaunch:
		b.repairOpen[repair.Key{File: e.Name, Stripe: e.Task}]++
	case trace.EvRepairDone:
		key := repair.Key{File: e.Name, Stripe: e.Task}
		if b.repairOpen[key] == 0 {
			return fmt.Errorf("%s has no open repair-launch", key)
		}
		if b.repairOpen[key]--; b.repairOpen[key] == 0 {
			delete(b.repairOpen, key)
		}
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
	}
	return nil
}

// job returns a submitted job's state.
func (b *Builder) job(idx int) (*jobTrace, error) {
	if idx < 0 || idx >= len(b.jobs) || !b.jobs[idx].submitted {
		return nil, fmt.Errorf("job %d was never submitted", idx)
	}
	return &b.jobs[idx], nil
}

// task returns map task e.Task of job e.Job: its record and its state.
func (b *Builder) task(e *trace.Event) (*TaskRecord, *span, error) {
	jt, err := b.job(e.Job)
	if err != nil {
		return nil, nil, err
	}
	if e.Task < 0 || e.Task >= len(jt.maps) {
		return nil, nil, fmt.Errorf("job %d has no map task %d", e.Job, e.Task)
	}
	return &b.res.Jobs[e.Job].Tasks[e.Task], &jt.maps[e.Task], nil
}

func (b *Builder) isFailed(node int) bool {
	return slices.Contains(b.res.Failed, topology.NodeID(node))
}

// openAtEnd names the first interval still open at run-end.
func (b *Builder) openAtEnd() error {
	for j, jt := range b.jobs {
		if !jt.finished {
			return fmt.Errorf("job %d never finished", j)
		}
		if t := slices.IndexFunc(jt.maps, isLive); t >= 0 {
			return fmt.Errorf("job %d task %d never closed", j, t)
		}
		if r := slices.IndexFunc(jt.reduces, isLive); r >= 0 {
			return fmt.Errorf("job %d reducer %d never closed", j, r)
		}
	}
	for i, word := range b.open {
		if word != 0 {
			return fmt.Errorf("flow %d never closed", 64*i+bits.TrailingZeros64(word))
		}
	}
	if n := len(b.repairOpen); n > 0 {
		return fmt.Errorf("stripes with a repair-launch never closed: %d", n)
	}
	return nil
}

// repairStats returns the lazily-allocated repair aggregate: it exists
// exactly when the run emitted repair events.
func (b *Builder) repairStats() *RepairStats {
	if b.res.Repair == nil {
		b.res.Repair = &RepairStats{FirstRepairAt: -1, FullRedundancyAt: -1}
	}
	return b.res.Repair
}

// Result returns the folded Result, or the trace's first violation. Call
// once, after the run's last event.
func (b *Builder) Result() (*Result, error) {
	if b.err == nil && !b.ended {
		b.err = errors.New("the trace has no run-end")
	}
	if b.err != nil {
		return nil, b.err
	}
	// Full redundancy is only reached when every repairable stripe healed
	// and nothing is beyond repair.
	if st := b.res.Repair; st != nil && (len(b.repairUnrep) > 0 || len(b.repairPending) > 0) {
		st.FullRedundancyAt = -1
	}
	return &b.res, nil
}
