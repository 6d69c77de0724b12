package jobsched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"degradedfirst/internal/sched"
)

// JobMeta is the policy-facing metadata of one job: what fair-share
// weighting, per-tenant quotas and EDF deadlines read. Every job-spec
// type (runtime, mapred, minimr, cluster) embeds it, so the fields, their
// wire names and their range checks exist once. All optional: the zero
// value is an anonymous tenant, weight 1, no deadline.
type JobMeta struct {
	// Tenant names the submitting tenant ("" is a tenant like any other:
	// single-tenant runs put every job in one bucket).
	Tenant string `json:"tenant,omitempty"`
	// Weight is the job's fair-share weight (0 counts as 1).
	Weight float64 `json:"weight,omitempty"`
	// Deadline is the job's completion deadline in virtual seconds
	// (0 = none) for the Deadline policy.
	Deadline float64 `json:"deadline,omitempty"`
}

// Sentinels for JobMeta.Validate, matched with errors.Is.
var (
	// ErrBadWeight rejects a negative or NaN fair-share Weight.
	ErrBadWeight = errors.New("invalid job weight")
	// ErrBadDeadline rejects a negative or NaN Deadline.
	ErrBadDeadline = errors.New("invalid job deadline")
)

// Validate rejects a negative or NaN weight or deadline.
func (m JobMeta) Validate() error {
	if m.Weight < 0 || math.IsNaN(m.Weight) {
		return fmt.Errorf("%w %v", ErrBadWeight, m.Weight)
	}
	if m.Deadline < 0 || math.IsNaN(m.Deadline) {
		return fmt.Errorf("%w %v", ErrBadDeadline, m.Deadline)
	}
	return nil
}

// Entry is the queue's view of one job. The runtime owns the task-level
// state; the entry tracks only what ordering policies need.
type Entry struct {
	// Idx is the job's submission index (== sched.Job.ID).
	Idx int
	// Meta is the job's policy metadata.
	Meta JobMeta
	// NumReducers is the job's reduce task count.
	NumReducers int
	// SJ is the scheduler-facing job handle, set at submission.
	SJ *sched.Job

	tenant           *tenant // Meta.Tenant's shared state, resolved in Add
	submitted        bool
	finished         bool
	grantedMaps      int // cumulative map-slot grants (never decremented)
	runningMaps      int // currently running map tasks
	reducersAssigned int // launched or completed reducers
	runningReduces   int // currently occupied reduce slots
}

// tenant is the state the jobs of one tenant share.
type tenant struct {
	name        string
	slotCap     int // Quota's concurrent-slot cap, 0 = unlimited
	grants      int // cumulative map grants (FairShare)
	mapsRunning int // running maps (Quota)
	redRunning  int // occupied reduce slots (Quota)

	// fairShareOrder scratch, reset at the start of each call.
	jobs     int     // active jobs
	weight   float64 // sum of their weights
	priority float64 // grants per weight
	next     int     // next free position of the tenant's block in Queue.order
}

// capped reports whether n running slots reach the tenant's Quota cap.
func (t *tenant) capped(n int) bool { return t.slotCap > 0 && n >= t.slotCap }

// active reports whether the job can still take map slots.
func (e *Entry) active() bool {
	return e.submitted && !e.finished && e.SJ != nil && !e.SJ.Done()
}

// reduceEligible reports whether the job can take a reduce slot.
func (e *Entry) reduceEligible() bool {
	return e.submitted && !e.finished && e.NumReducers > 0 && e.reducersAssigned < e.NumReducers
}

func (e *Entry) weight() float64 {
	if e.Meta.Weight > 0 {
		return e.Meta.Weight
	}
	return 1
}

func (e *Entry) deadline() float64 {
	if e.Meta.Deadline > 0 {
		return e.Meta.Deadline
	}
	return math.Inf(1)
}

// Queue is the job-level scheduler. It is a passive component driven
// entirely by runtime notifications, so every policy stays deterministic
// under the virtual clock. Not safe for concurrent use; the runtime
// calls it from the simulation goroutine only.
type Queue struct {
	cfg     Config
	entries []*Entry
	tenants map[string]*tenant // written in Add only

	// live holds the submitted, unfinished entries in Idx order: every job
	// that can take a map or reduce slot is in it, so no per-heartbeat
	// call looks at a job that has not arrived or has left.
	live []*Entry

	order   []*sched.Job // MapOrder result, reused
	scratch []*Entry     // MapOrder's eligible entries, Idx order, reused
	ranked  []*tenant    // fairShareOrder's tenants with active jobs, reused
}

// New returns an empty queue after validating cfg.
func New(cfg Config) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Queue{cfg: cfg, tenants: make(map[string]*tenant)}, nil
}

// Add registers a job before the run starts and returns its index. Jobs
// must be added in submission-index order (the runtime's job slice).
func (q *Queue) Add(meta JobMeta, numReducers int) int {
	t := q.tenants[meta.Tenant]
	if t == nil {
		t = &tenant{name: meta.Tenant, slotCap: q.cfg.QuotaSlots}
		q.tenants[meta.Tenant] = t
	}
	e := &Entry{Idx: len(q.entries), Meta: meta, NumReducers: numReducers, tenant: t}
	q.entries = append(q.entries, e)
	return e.Idx
}

// Len returns the number of registered jobs.
func (q *Queue) Len() int { return len(q.entries) }

// livePos returns where job idx is, or would be inserted, in q.live.
func (q *Queue) livePos(idx int) (int, bool) {
	return slices.BinarySearchFunc(q.live, idx, func(e *Entry, idx int) int { return cmp.Compare(e.Idx, idx) })
}

// Submit marks job idx submitted with its scheduler-facing handle.
func (q *Queue) Submit(idx int, sj *sched.Job) {
	e := q.entries[idx]
	e.SJ = sj
	e.submitted = true
	pos, _ := q.livePos(idx)
	q.live = slices.Insert(q.live, pos, e)
}

// MapOrder returns the jobs eligible for map-slot assignment — live's
// entries with a pending map task — most preferred first: in Idx order
// under Fifo and Quota (Quota skipping tenants at their cap), by earliest
// deadline under Deadline, by tenant share under FairShare. The runtime
// installs the result as sched.Env.Jobs before calling the task scheduler;
// it stays valid until the next Queue mutation.
func (q *Queue) MapOrder() []*sched.Job {
	q.scratch = q.scratch[:0]
	for _, e := range q.live {
		if !e.active() || (q.cfg.Policy == Quota && e.tenant.capped(e.tenant.mapsRunning)) {
			continue
		}
		q.scratch = append(q.scratch, e)
	}
	switch q.cfg.Policy {
	case FairShare:
		return q.fairShareOrder()
	case Deadline:
		slices.SortFunc(q.scratch, func(a, b *Entry) int {
			switch da, db := a.deadline(), b.deadline(); {
			case da < db:
				return -1
			case db < da:
				return 1
			}
			return cmp.Compare(a.Idx, b.Idx)
		})
	}
	q.order = q.order[:0]
	for _, e := range q.scratch {
		q.order = append(q.order, e.SJ)
	}
	return q.order
}

// fairShareOrder orders q.scratch so the tenant with the lowest
// grants-per-weight comes first (ties broken by tenant name), keeping
// submission order within each tenant. A tenant's weight is the sum of
// its active jobs' weights, so a tenant's share scales with what it is
// asking for, and granting it a slot immediately lowers its priority —
// the deficit/round-robin behavior. It ranks the tenants, gives each a
// contiguous block of q.order sized by its job count, and drops every
// job into its tenant's block, all in reused storage.
func (q *Queue) fairShareOrder() []*sched.Job {
	for _, t := range q.ranked {
		t.jobs, t.weight = 0, 0
	}
	q.ranked = q.ranked[:0]
	for _, e := range q.scratch {
		t := e.tenant
		if t.jobs == 0 {
			q.ranked = append(q.ranked, t)
		}
		t.jobs++
		t.weight += e.weight()
	}
	for _, t := range q.ranked {
		t.priority = float64(t.grants) / t.weight
	}
	slices.SortFunc(q.ranked, func(a, b *tenant) int {
		if c := cmp.Compare(a.priority, b.priority); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	next := 0
	for _, t := range q.ranked {
		t.next = next
		next += t.jobs
	}
	q.order = slices.Grow(q.order[:0], len(q.scratch))[:len(q.scratch)]
	for _, e := range q.scratch {
		q.order[e.tenant.next] = e.SJ
		e.tenant.next++
	}
	return q.order
}

// MapGranted records one map-slot grant to job idx and reports whether
// it was the job's first ever grant (the runtime emits the job-grant
// trace event exactly once per job).
func (q *Queue) MapGranted(idx int) bool {
	e := q.entries[idx]
	e.grantedMaps++
	e.runningMaps++
	e.tenant.grants++
	e.tenant.mapsRunning++
	return e.grantedMaps == 1
}

// MapReleased records a map slot freed by job idx (task completion or
// requeue after failure).
func (q *Queue) MapReleased(idx int) {
	e := q.entries[idx]
	e.runningMaps--
	e.tenant.mapsRunning--
}

// NextReduce returns the job whose next unlaunched reducer should take
// a free reduce slot, or nil when no job can: the earliest deadline
// under Deadline, otherwise the first in submission order (fair-share
// arbitrates map-slot grants only), skipping tenants at their reduce cap
// under Quota.
func (q *Queue) NextReduce() *Entry {
	var best *Entry
	for _, e := range q.live {
		if !e.reduceEligible() {
			continue
		}
		switch q.cfg.Policy {
		case Quota:
			if e.tenant.capped(e.tenant.redRunning) {
				continue
			}
		case Deadline:
			if best == nil || e.deadline() < best.deadline() {
				best = e
			}
			continue
		}
		return e
	}
	return best
}

// ReduceGranted records a reduce-slot grant to job idx.
func (q *Queue) ReduceGranted(idx int) {
	e := q.entries[idx]
	e.reducersAssigned++
	e.runningReduces++
	e.tenant.redRunning++
}

// ReduceReleased records a reducer of job idx completing.
func (q *Queue) ReduceReleased(idx int) {
	e := q.entries[idx]
	e.runningReduces--
	e.tenant.redRunning--
}

// ReduceReset undoes a reducer assignment (failure recovery restarts
// the reducer elsewhere), so the job is reduce-eligible again.
func (q *Queue) ReduceReset(idx int) {
	e := q.entries[idx]
	e.reducersAssigned--
	e.runningReduces--
	e.tenant.redRunning--
}

// JobFinished marks job idx finished; it leaves every ordering.
func (q *Queue) JobFinished(idx int) {
	q.entries[idx].finished = true
	if pos, ok := q.livePos(idx); ok {
		q.live = slices.Delete(q.live, pos, pos+1)
	}
}
