package jobsched

import (
	"errors"
	"fmt"
	"math"
	"sort"

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

	submitted        bool
	finished         bool
	grantedMaps      int // cumulative map-slot grants (never decremented)
	runningMaps      int // currently running map tasks
	reducersAssigned int // launched or completed reducers
	runningReduces   int // currently occupied reduce slots
}

// Submitted reports whether the job has been submitted.
func (e *Entry) Submitted() bool { return e.submitted }

// Finished reports whether the job has finished.
func (e *Entry) Finished() bool { return e.finished }

// GrantedMaps returns the job's cumulative map-slot grants.
func (e *Entry) GrantedMaps() int { return e.grantedMaps }

// ReducersAssigned returns the job's launched-or-done reducer count.
func (e *Entry) ReducersAssigned() int { return e.reducersAssigned }

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

	// view is the Fifo policy's live job list, mutated with exactly the
	// seed runtime's env.Jobs mechanics: append on submit, ID-sorted
	// re-insert on requeue, compaction on prune. Non-Fifo policies
	// recompute their order per MapOrder call instead.
	view []*sched.Job

	// redCursor is the indexed reducer cursor: entries before it are
	// permanently reduce-ineligible (finished, map-only, or fully
	// assigned — ReduceReset rewinds it).
	redCursor int

	grants      map[string]int // per-tenant cumulative map grants (FairShare)
	mapsRunning map[string]int // per-tenant running maps (Quota)
	redRunning  map[string]int // per-tenant occupied reduce slots (Quota)

	order   []*sched.Job // MapOrder scratch (non-Fifo)
	scratch []*Entry     // ordering scratch (non-Fifo)
}

// New returns an empty queue after validating cfg.
func New(cfg Config) (*Queue, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Queue{
		cfg:         cfg,
		grants:      make(map[string]int),
		mapsRunning: make(map[string]int),
		redRunning:  make(map[string]int),
	}, nil
}

// Add registers a job before the run starts and returns its index. Jobs
// must be added in submission-index order (the runtime's job slice).
func (q *Queue) Add(meta JobMeta, numReducers int) int {
	e := &Entry{Idx: len(q.entries), Meta: meta, NumReducers: numReducers}
	q.entries = append(q.entries, e)
	return e.Idx
}

// Len returns the number of registered jobs.
func (q *Queue) Len() int { return len(q.entries) }

// Entry returns the entry of job idx.
func (q *Queue) Entry(idx int) *Entry { return q.entries[idx] }

// Submit marks job idx submitted with its scheduler-facing handle.
func (q *Queue) Submit(idx int, sj *sched.Job) {
	e := q.entries[idx]
	e.SJ = sj
	e.submitted = true
	if q.cfg.Policy == Fifo {
		q.view = append(q.view, sj)
	}
}

// MapOrder returns the jobs eligible for map-slot assignment, most
// preferred first. The runtime installs the result as sched.Env.Jobs
// before calling the task scheduler; it stays valid until the next
// Queue mutation.
func (q *Queue) MapOrder() []*sched.Job {
	if q.cfg.Policy == Fifo {
		return q.view
	}
	q.scratch = q.scratch[:0]
	for _, e := range q.entries {
		if e.active() {
			q.scratch = append(q.scratch, e)
		}
	}
	switch q.cfg.Policy {
	case Quota:
		kept := q.scratch[:0]
		for _, e := range q.scratch {
			if c := q.capFor(e.Meta.Tenant); c > 0 && q.mapsRunning[e.Meta.Tenant] >= c {
				continue
			}
			kept = append(kept, e)
		}
		q.scratch = kept
	case Deadline:
		sort.Slice(q.scratch, func(i, j int) bool {
			di, dj := q.scratch[i].deadline(), q.scratch[j].deadline()
			if di < dj {
				return true
			}
			if dj < di {
				return false
			}
			return q.scratch[i].Idx < q.scratch[j].Idx
		})
	case FairShare:
		q.sortFairShare()
	}
	q.order = q.order[:0]
	for _, e := range q.scratch {
		q.order = append(q.order, e.SJ)
	}
	return q.order
}

// sortFairShare orders q.scratch so the tenant with the lowest
// grants-per-weight comes first (ties broken by tenant name), keeping
// submission order within each tenant. A tenant's weight is the sum of
// its active jobs' weights, so a tenant's share scales with what it is
// asking for, and granting it a slot immediately lowers its priority —
// the deficit/round-robin behavior.
func (q *Queue) sortFairShare() {
	type share struct {
		name     string
		priority float64
		entries  []*Entry
	}
	var tenants []share
	index := make(map[string]int)
	for _, e := range q.scratch {
		i, ok := index[e.Meta.Tenant]
		if !ok {
			i = len(tenants)
			index[e.Meta.Tenant] = i
			tenants = append(tenants, share{name: e.Meta.Tenant})
		}
		tenants[i].entries = append(tenants[i].entries, e)
	}
	for i := range tenants {
		var weight float64
		for _, e := range tenants[i].entries {
			weight += e.weight()
		}
		tenants[i].priority = float64(q.grants[tenants[i].name]) / weight
	}
	sort.Slice(tenants, func(i, j int) bool {
		if tenants[i].priority < tenants[j].priority {
			return true
		}
		if tenants[j].priority < tenants[i].priority {
			return false
		}
		return tenants[i].name < tenants[j].name
	})
	q.scratch = q.scratch[:0]
	for _, t := range tenants {
		q.scratch = append(q.scratch, t.entries...)
	}
}

// Prune drops finished-scheduling jobs from the Fifo view (the seed
// runtime's pruneScheduledJobs). Recomputing policies need no pruning.
func (q *Queue) Prune() {
	if q.cfg.Policy != Fifo {
		return
	}
	kept := q.view[:0]
	for _, j := range q.view {
		if !j.Done() {
			kept = append(kept, j)
		}
	}
	q.view = kept
}

// Requeue re-enters a job with pending tasks after failure recovery.
// Fifo mirrors the seed runtime's ensureScheduled exactly: re-insert at
// the ID-sorted position unless already present. Recomputing policies
// pick the job up automatically on the next MapOrder call.
func (q *Queue) Requeue(idx int) {
	e := q.entries[idx]
	if !e.submitted || e.SJ == nil || e.SJ.Done() {
		return
	}
	if q.cfg.Policy != Fifo {
		return
	}
	for _, j := range q.view {
		if j == e.SJ {
			return
		}
	}
	pos := len(q.view)
	for i, j := range q.view {
		if j.ID > e.Idx {
			pos = i
			break
		}
	}
	q.view = append(q.view, nil)
	copy(q.view[pos+1:], q.view[pos:])
	q.view[pos] = e.SJ
}

// MapGranted records one map-slot grant to job idx and reports whether
// it was the job's first ever grant (the runtime emits the job-grant
// trace event exactly once per job).
func (q *Queue) MapGranted(idx int) bool {
	e := q.entries[idx]
	e.grantedMaps++
	e.runningMaps++
	q.grants[e.Meta.Tenant]++
	q.mapsRunning[e.Meta.Tenant]++
	return e.grantedMaps == 1
}

// MapReleased records a map slot freed by job idx (task completion or
// requeue after failure).
func (q *Queue) MapReleased(idx int) {
	e := q.entries[idx]
	e.runningMaps--
	q.mapsRunning[e.Meta.Tenant]--
}

// NextReduce returns the job whose next unlaunched reducer should take
// a free reduce slot, or nil when no job can.
func (q *Queue) NextReduce() *Entry {
	switch q.cfg.Policy {
	case Fifo:
		return q.cursorReduce()
	case FairShare:
		// Fair-share arbitrates map-slot grants; reduce slots follow
		// submission order like the seed runtime.
		return q.scanReduce(0)
	case Quota:
		for _, e := range q.entries {
			if !e.reduceEligible() {
				continue
			}
			if c := q.capFor(e.Meta.Tenant); c > 0 && q.redRunning[e.Meta.Tenant] >= c {
				continue
			}
			return e
		}
		return nil
	case Deadline:
		var best *Entry
		for _, e := range q.entries {
			if !e.reduceEligible() {
				continue
			}
			if best == nil || e.deadline() < best.deadline() {
				best = e
			}
		}
		return best
	}
	return nil
}

// scanReduce is the seed runtime's full rescan: the first reduce-
// eligible job in submission order, starting at entry `from`.
func (q *Queue) scanReduce(from int) *Entry {
	for _, e := range q.entries[from:] {
		if e.reduceEligible() {
			return e
		}
	}
	return nil
}

// cursorReduce advances the indexed cursor past permanently-skippable
// entries, then scans from it. An entry is skippable when it is
// finished, map-only, or has all reducers assigned (ReduceReset rewinds
// the cursor when an assignment is undone); an unsubmitted job with
// reducers is *not* skippable — it can become the first eligible job
// later — so the cursor stops there and the residual scan covers the
// tail, exactly like the reference rescan.
func (q *Queue) cursorReduce() *Entry {
	for q.redCursor < len(q.entries) {
		e := q.entries[q.redCursor]
		if e.finished || e.NumReducers == 0 ||
			(e.submitted && e.reducersAssigned >= e.NumReducers) {
			q.redCursor++
			continue
		}
		break
	}
	return q.scanReduce(q.redCursor)
}

// ReduceGranted records a reduce-slot grant to job idx.
func (q *Queue) ReduceGranted(idx int) {
	e := q.entries[idx]
	e.reducersAssigned++
	e.runningReduces++
	q.redRunning[e.Meta.Tenant]++
}

// ReduceReleased records a reducer of job idx completing.
func (q *Queue) ReduceReleased(idx int) {
	e := q.entries[idx]
	e.runningReduces--
	q.redRunning[e.Meta.Tenant]--
}

// ReduceReset undoes a reducer assignment (failure recovery restarts
// the reducer elsewhere) and rewinds the cursor so the job is
// reconsidered.
func (q *Queue) ReduceReset(idx int) {
	e := q.entries[idx]
	e.reducersAssigned--
	e.runningReduces--
	q.redRunning[e.Meta.Tenant]--
	if idx < q.redCursor {
		q.redCursor = idx
	}
}

// JobFinished marks job idx finished; it leaves every ordering.
func (q *Queue) JobFinished(idx int) {
	q.entries[idx].finished = true
}

func (q *Queue) capFor(tenant string) int {
	if c, ok := q.cfg.TenantQuotas[tenant]; ok {
		return c
	}
	return q.cfg.QuotaSlots
}
