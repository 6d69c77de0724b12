package sched

import (
	"fmt"
	"slices"
	"strings"

	"degradedfirst/internal/topology"
)

// Heartbeat is one slave's request for work, carrying the information a
// real Hadoop heartbeat would.
type Heartbeat struct {
	// Now is the current (virtual) time in seconds.
	Now float64
	// Node is the heartbeating slave.
	Node topology.NodeID
	// FreeMapSlots is how many map slots the slave has available.
	FreeMapSlots int
}

// Env is the cluster-wide state the schedulers consult. The driving
// framework (simulator or minimr) keeps it current between heartbeats.
type Env struct {
	// Cluster provides topology and failure state.
	Cluster *topology.Cluster
	// Jobs are the running jobs in FIFO submission order. Finished jobs
	// should be removed by the framework.
	Jobs []*Job
	// PerTaskTime estimates the processing time of one map task on the
	// given node (seconds), reflecting heterogeneous processing power.
	// Used by EDF's locality-preservation heuristic. May be nil, in which
	// case a uniform estimate of 1 is used.
	PerTaskTime func(topology.NodeID) float64
	// DegradedReadTime is the expected time of one degraded read,
	// (R-1)kS/(RW) in the paper's notation (ExpectedDegradedReadTime).
	// Used as EDF's rack-awareness threshold.
	DegradedReadTime float64

	// assigned is the buffer every Assign on this Env appends to, so a
	// heartbeat makes no slice of its own.
	assigned []Assignment
}

// ExpectedDegradedReadTime is the analysis estimate of one degraded read,
// (R-1)/R · reads · S / W: a task in one of R racks downloads `reads`
// blocks of blockBytes, all but 1/R of them across the rack's download
// link of rackBps. Zero when the rack bandwidth is unlimited (0).
func ExpectedDegradedReadTime(racks, reads int, blockBytes, rackBps float64) float64 {
	if rackBps == 0 {
		return 0
	}
	r := float64(racks)
	return (r - 1) / r * float64(reads) * blockBytes / rackBps
}

func (e *Env) perTaskTime(id topology.NodeID) float64 {
	if e.PerTaskTime == nil {
		return 1
	}
	return e.PerTaskTime(id)
}

// Assignment is one scheduling decision.
type Assignment struct {
	Task  *Task
	Class Class
}

// Scheduler assigns map tasks in response to slave heartbeats.
type Scheduler interface {
	// Assign fills the slave's free map slots, mutating the jobs' pending
	// sets, and returns the assignments in launch order. They are held in
	// a buffer env keeps, valid until the next Assign on env.
	Assign(env *Env, hb Heartbeat) []Assignment
}

// classify determines the class of task t when run on node s.
func classify(c *topology.Cluster, t *Task, s topology.NodeID) Class {
	if t.Lost {
		return ClassDegraded
	}
	switch c.LocalityOf(s, t.Holder) {
	case topology.NodeLocal:
		return ClassNodeLocal
	case topology.RackLocal:
		return ClassRackLocal
	default:
		return ClassRemote
	}
}

// popLocalOrRemote implements the shared tail of all three algorithms:
// prefer a node-local task, then rack-local, then remote, for job j on
// slave s. Returns nil when the job has no such pending task.
func popLocalOrRemote(env *Env, j *Job, s topology.NodeID) *Task {
	if t := j.popNodeLocal(s); t != nil {
		return t
	}
	if t := j.popRackLocal(env.Cluster, s); t != nil {
		return t
	}
	return j.popRemote(env.Cluster, s)
}

// LocalityFirst is Hadoop's default scheduling (Algorithm 1): for every
// free slot, assign a local task if one exists, else a remote task, else a
// degraded task.
type LocalityFirst struct{}

// Assign implements Scheduler.
func (LocalityFirst) Assign(env *Env, hb Heartbeat) []Assignment {
	out := env.assigned[:0]
	free := hb.FreeMapSlots
	for _, j := range env.Jobs {
		for free > 0 {
			t := popLocalOrRemote(env, j, hb.Node)
			if t == nil {
				t = j.popDegraded()
			}
			if t == nil {
				break // job exhausted; next job
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

// BasicDegradedFirst is Algorithm 2: before the per-slot local/remote
// loop, at most one degraded task is assigned per heartbeat, gated by the
// pacing rule m/M >= m_d/M_d, which spreads degraded launches evenly over
// the map phase.
type BasicDegradedFirst struct{}

// Assign implements Scheduler.
func (BasicDegradedFirst) Assign(env *Env, hb Heartbeat) []Assignment {
	return degradedFirstAssign(env, hb, nil)
}

// degradedFirstAssign is the shared body of Algorithms 2 and 3: edf adds
// Algorithm 3's admission checks, and a nil edf (BDF) always admits.
func degradedFirstAssign(env *Env, hb Heartbeat, edf *EnhancedDegradedFirst) []Assignment {
	out := env.assigned[:0]
	free := hb.FreeMapSlots
	degradedAssigned := false
	for _, j := range env.Jobs {
		// Degraded-first branch: at most one per heartbeat across jobs.
		if !degradedAssigned && free > 0 && j.PendingDegraded() > 0 {
			m, md := j.Launched()
			total, totalDeg := j.Totals()
			// Pacing: launch a degraded task only while the launched
			// fraction of degraded tasks trails the overall fraction.
			paced := float64(m)*float64(totalDeg) >= float64(md)*float64(total)
			admit := paced
			if admit && edf != nil {
				admit = edf.assignToSlave(env, hb.Node) && edf.assignToRack(env, hb.Now, env.Cluster.RackOf(hb.Node))
			}
			if admit {
				if t := j.popDegraded(); t != nil {
					out = append(out, Assignment{Task: t, Class: ClassDegraded})
					free--
					degradedAssigned = true
					if edf != nil {
						edf.lastDegraded[env.Cluster.RackOf(hb.Node)] = hb.Now
					}
				}
			}
		}
		// Local/remote fill for the remaining slots (degraded tasks are
		// not assigned here — that is the point of the pacing).
		for free > 0 {
			t := popLocalOrRemote(env, j, hb.Node)
			if t == nil {
				break
			}
			out = append(out, Assignment{Task: t, Class: classify(env.Cluster, t, hb.Node)})
			free--
		}
		if free == 0 {
			break
		}
	}
	// End-game: when nothing but degraded tasks remain in all jobs, strict
	// one-per-heartbeat pacing still applies, but the pacing ratio is
	// guaranteed to admit (m includes all launched locals), so no deadlock.
	env.assigned = out
	return out
}

// EnhancedDegradedFirst is Algorithm 3: BDF plus locality preservation and
// rack awareness. It is stateful (per-rack last-degraded-launch times), so
// construct one instance per run with NewEnhancedDegradedFirst.
type EnhancedDegradedFirst struct {
	// lastDegraded[r] is when a degraded task was last assigned to rack r;
	// -inf-like sentinel before any assignment.
	lastDegraded []float64
}

// NewEnhancedDegradedFirst returns an EDF scheduler for a cluster with the
// given number of racks.
func NewEnhancedDegradedFirst(numRacks int) *EnhancedDegradedFirst {
	last := make([]float64, numRacks)
	for i := range last {
		last[i] = -1e18 // effectively "long ago": every rack starts admissible
	}
	return &EnhancedDegradedFirst{lastDegraded: last}
}

// Assign implements Scheduler.
func (e *EnhancedDegradedFirst) Assign(env *Env, hb Heartbeat) []Assignment {
	return degradedFirstAssign(env, hb, e)
}

// assignToSlave implements locality preservation: admit slave s only if
// its estimated pending local work t_s does not exceed the cluster average
// E[t_s]. (The paper's prose, Section IV-C; the transcribed pseudo-code
// inverts the comparison — see DESIGN.md "Pseudo-code discrepancy".)
// The estimate accounts for heterogeneous processing power via
// Env.PerTaskTime, so fast slaves absorb degraded tasks even with deeper
// local queues.
func (e *EnhancedDegradedFirst) assignToSlave(env *Env, s topology.NodeID) bool {
	alive := 0
	var ts, sum float64
	for _, node := range env.Cluster.Nodes() {
		if node.Failed() {
			continue
		}
		alive++
		id := node.ID
		pending := 0
		for _, j := range env.Jobs {
			pending += j.pendingLocalCount(id)
		}
		est := float64(pending) * env.perTaskTime(id) / float64(max(node.MapSlots, 1))
		sum += est
		if id == s {
			ts = est
		}
	}
	return ts <= sum/float64(alive) // s heartbeats, so alive > 0
}

// assignToRack implements rack awareness: refuse rack r when its last
// degraded launch is more recent than both the average over the racks
// with a live node and the expected degraded-read duration (it is likely
// still downloading). A rack with no live node never launches, and its
// "long ago" sentinel would put the average out of reach. Rack r has the
// heartbeating node, so the average covers at least one rack.
func (e *EnhancedDegradedFirst) assignToRack(env *Env, now float64, r topology.RackID) bool {
	var sum float64
	live := 0
	for i, last := range e.lastDegraded {
		if slices.ContainsFunc(env.Cluster.RackNodes(topology.RackID(i)), env.Cluster.Alive) {
			sum += now - last
			live++
		}
	}
	return now-e.lastDegraded[r] >= min(sum/float64(live), env.DegradedReadTime)
}

// EagerDegradedFirst is an ablation of the pacing rule: it assigns
// degraded tasks before local tasks with no pacing and no one-per-
// heartbeat limit. It demonstrates why Algorithm 2's m/M >= m_d/M_d rule
// matters: eager launching recreates the degraded-read network competition
// at the *start* of the map phase instead of the end.
type EagerDegradedFirst struct{}

// Assign implements Scheduler.
func (EagerDegradedFirst) Assign(env *Env, hb Heartbeat) []Assignment {
	out := env.assigned[:0]
	free := hb.FreeMapSlots
	for _, j := range env.Jobs {
		for free > 0 {
			t := j.popDegraded()
			if t == nil {
				t = popLocalOrRemote(env, j, hb.Node)
			}
			if t == nil {
				break
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

// Verify interface compliance.
var (
	_ Scheduler = LocalityFirst{}
	_ Scheduler = BasicDegradedFirst{}
	_ Scheduler = (*EnhancedDegradedFirst)(nil)
	_ Scheduler = EagerDegradedFirst{}
)

// Kind selects one of the three algorithms by name; both execution engines
// (the discrete-event simulator and the real-execution minimr) construct
// their scheduler from a Kind.
type Kind int

const (
	// KindLF is locality-first (Algorithm 1), the zero value.
	KindLF Kind = iota
	// KindBDF is basic degraded-first (Algorithm 2).
	KindBDF
	// KindEDF is enhanced degraded-first (Algorithm 3).
	KindEDF
	// KindEagerDF is the unpaced all-degraded-first ablation.
	KindEagerDF
	// KindDelayLF is the delay-scheduling baseline (Zaharia et al. 2010).
	KindDelayLF
)

// String returns the scheduler name.
func (k Kind) String() string {
	switch k {
	case KindLF:
		return "LF"
	case KindBDF:
		return "BDF"
	case KindEDF:
		return "EDF"
	case KindEagerDF:
		return "EagerDF"
	case KindDelayLF:
		return "DelayLF"
	default:
		return fmt.Sprintf("scheduler(%d)", int(k))
	}
}

// ParseKind parses a scheduler name as accepted by the -sched flags,
// ignoring case.
func ParseKind(s string) (Kind, error) {
	for k := KindLF; k <= KindDelayLF; k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown scheduler %q (want LF, BDF, EDF, EagerDF or DelayLF)", s)
}

// MarshalText and UnmarshalText spell a scheduler by its name.
func (k Kind) MarshalText() ([]byte, error)        { return []byte(k.String()), nil }
func (k *Kind) UnmarshalText(b []byte) (err error) { *k, err = ParseKind(string(b)); return err }

// PatienceRounds bounds how long a scheduler Kind.New builds holds back
// every task while the cluster is idle, counted in scheduling
// opportunities: delay scheduling forgoes at most PatienceRounds per rack
// before it accepts a non-local task. Every other kind launches within
// one heartbeat of every node when a task is pending and every slot is
// free: pacing that holds degraded tasks back leaves normal ones to fill
// the slots, and EDF's rack rule, though it reads the clock, always admits
// the live rack whose last degraded launch is oldest. The runtime's stall
// check relies on this bound.
const PatienceRounds = 3

// New constructs a fresh scheduler instance for a run on a cluster with
// the given number of racks.
func (k Kind) New(numRacks int) (Scheduler, error) {
	switch k {
	case KindLF:
		return LocalityFirst{}, nil
	case KindBDF:
		return BasicDegradedFirst{}, nil
	case KindEDF:
		return NewEnhancedDegradedFirst(numRacks), nil
	case KindEagerDF:
		return EagerDegradedFirst{}, nil
	case KindDelayLF:
		// D tuned to a few heartbeat rounds, as in the delay-scheduling
		// paper's small-delay recommendation.
		return NewDelayScheduling(PatienceRounds * numRacks), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler kind %d", int(k))
	}
}
