package jobsched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// pendingJob returns a sched.Job with n never-drained map tasks, so the
// entry stays active() for the whole test.
func pendingJob(id, n int) *sched.Job {
	specs := make([]sched.TaskSpec, n)
	for i := range specs {
		specs[i].Holder = topology.NodeID(i % 4)
	}
	return sched.NewJob(id, specs)
}

func ids(jobs []*sched.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range []Kind{Fifo, FairShare, Quota, Deadline} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != Fifo {
		t.Fatalf("empty string must parse as fifo, got %v, %v", k, err)
	}
	if _, err := ParseKind("lottery"); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if Kind(42).String() == "" {
		t.Fatal("out-of-range String must not be empty")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{Policy: Kind(9)},
		{QuotaSlots: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v must fail validation", bad)
		}
	}
	ok := Config{Policy: Quota, QuotaSlots: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Policy: Kind(9)}); err == nil {
		t.Fatal("New must reject invalid config")
	}
}

func TestMapGrantedFirstGrantOnly(t *testing.T) {
	q, _ := New(Config{})
	q.Add(JobMeta{Tenant: "a"}, 0)
	if !q.MapGranted(0) {
		t.Fatal("first grant must report true")
	}
	if q.MapGranted(0) {
		t.Fatal("second grant must report false")
	}
	q.MapReleased(0)
	if q.MapGranted(0) {
		t.Fatal("grants are cumulative; release must not reset first-grant")
	}
}

func TestFairShareWeightedRotation(t *testing.T) {
	q, err := New(Config{Policy: FairShare})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant a (weight 2) and tenant b (weight 1), one big job each.
	q.Add(JobMeta{Tenant: "a", Weight: 2}, 0)
	q.Add(JobMeta{Tenant: "b", Weight: 1}, 0)
	q.Submit(0, pendingJob(0, 100))
	q.Submit(1, pendingJob(1, 100))

	var seq []int
	for i := 0; i < 6; i++ {
		order := q.MapOrder()
		if len(order) != 2 {
			t.Fatalf("round %d: order = %v", i, ids(order))
		}
		seq = append(seq, order[0].ID)
		q.MapGranted(order[0].ID)
	}
	// Equal priority ties break by tenant name (a first); granting a
	// raises its grants-per-weight, so slots alternate 2:1 toward a.
	want := []int{0, 1, 0, 0, 1, 0}
	if !equalInts(seq, want) {
		t.Fatalf("fair-share grant sequence = %v, want %v", seq, want)
	}
}

func TestFairShareWeightDefaultsToOne(t *testing.T) {
	q, _ := New(Config{Policy: FairShare})
	q.Add(JobMeta{Tenant: "a"}, 0) // weight 0 -> 1
	q.Add(JobMeta{Tenant: "b", Weight: 1}, 0)
	q.Submit(0, pendingJob(0, 10))
	q.Submit(1, pendingJob(1, 10))
	seq := []int{}
	for i := 0; i < 4; i++ {
		order := q.MapOrder()
		seq = append(seq, order[0].ID)
		q.MapGranted(order[0].ID)
	}
	if !equalInts(seq, []int{0, 1, 0, 1}) {
		t.Fatalf("equal-weight rotation = %v", seq)
	}
}

func TestQuotaCapsMapSlots(t *testing.T) {
	q, err := New(Config{Policy: Quota, QuotaSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	q.Add(JobMeta{Tenant: "a"}, 0)
	q.Add(JobMeta{Tenant: "b"}, 0)
	q.Submit(0, pendingJob(0, 10))
	q.Submit(1, pendingJob(1, 10))

	if !equalInts(ids(q.MapOrder()), []int{0, 1}) {
		t.Fatalf("initial order = %v", ids(q.MapOrder()))
	}
	q.MapGranted(0) // a at 1 of 2: still eligible
	if !equalInts(ids(q.MapOrder()), []int{0, 1}) {
		t.Fatalf("a below cap, order = %v", ids(q.MapOrder()))
	}
	q.MapGranted(0) // tenant a now at its cap of 2
	if !equalInts(ids(q.MapOrder()), []int{1}) {
		t.Fatalf("a at cap, order = %v", ids(q.MapOrder()))
	}
	q.MapGranted(1)
	q.MapGranted(1) // b at its cap of 2
	if len(q.MapOrder()) != 0 {
		t.Fatalf("both at cap, order = %v", ids(q.MapOrder()))
	}
	q.MapReleased(0)
	if !equalInts(ids(q.MapOrder()), []int{0}) {
		t.Fatalf("a released, order = %v", ids(q.MapOrder()))
	}
}

func TestQuotaZeroMeansUnlimited(t *testing.T) {
	q, _ := New(Config{Policy: Quota}) // QuotaSlots 0
	q.Add(JobMeta{Tenant: "a"}, 0)
	q.Submit(0, pendingJob(0, 10))
	for i := 0; i < 5; i++ {
		if len(q.MapOrder()) != 1 {
			t.Fatalf("grant %d: unlimited quota filtered the job", i)
		}
		q.MapGranted(0)
	}
}

func TestQuotaCapsReduceSlots(t *testing.T) {
	q, _ := New(Config{Policy: Quota, QuotaSlots: 1})
	q.Add(JobMeta{Tenant: "a"}, 2)
	q.Add(JobMeta{Tenant: "b"}, 2)
	q.Submit(0, pendingJob(0, 1))
	q.Submit(1, pendingJob(1, 1))

	e := q.NextReduce()
	if e == nil || e.Idx != 0 {
		t.Fatalf("first reduce pick = %+v", e)
	}
	q.ReduceGranted(0) // tenant a at reduce cap
	e = q.NextReduce()
	if e == nil || e.Idx != 1 {
		t.Fatalf("a at cap, pick = %+v", e)
	}
	q.ReduceGranted(1)
	if q.NextReduce() != nil {
		t.Fatal("both at cap: no pick")
	}
	q.ReduceReleased(0)
	e = q.NextReduce()
	if e == nil || e.Idx != 0 {
		t.Fatalf("a released, pick = %+v", e)
	}
}

func TestDeadlineOrdering(t *testing.T) {
	q, err := New(Config{Policy: Deadline})
	if err != nil {
		t.Fatal(err)
	}
	q.Add(JobMeta{Tenant: "a", Deadline: 50}, 1)
	q.Add(JobMeta{Tenant: "b"}, 1) // no deadline: last
	q.Add(JobMeta{Tenant: "c", Deadline: 20}, 1)
	q.Add(JobMeta{Tenant: "d", Deadline: 20}, 1) // tie: submission order
	for i := 0; i < 4; i++ {
		q.Submit(i, pendingJob(i, 5))
	}
	if !equalInts(ids(q.MapOrder()), []int{2, 3, 0, 1}) {
		t.Fatalf("deadline order = %v", ids(q.MapOrder()))
	}
	if e := q.NextReduce(); e == nil || e.Idx != 2 {
		t.Fatalf("deadline reduce pick = %+v", e)
	}
	q.ReduceGranted(2)
	if e := q.NextReduce(); e == nil || e.Idx != 3 {
		t.Fatalf("after c assigned, pick = %+v", e)
	}
}

// oracleMapOrder recomputes the map order from every registered entry and
// from the entries' own counters, the way MapOrder did before the queue
// kept a live list and per-tenant state: filter, then a fresh sort per
// call.
func oracleMapOrder(q *Queue) []int {
	grants := make(map[string]int)
	mapsRunning := make(map[string]int)
	for _, e := range q.entries {
		grants[e.Meta.Tenant] += e.grantedMaps
		mapsRunning[e.Meta.Tenant] += e.runningMaps
	}
	var act []*Entry
	for _, e := range q.entries {
		if !e.active() {
			continue
		}
		if c := q.cfg.QuotaSlots; q.cfg.Policy == Quota && c > 0 && mapsRunning[e.Meta.Tenant] >= c {
			continue
		}
		act = append(act, e)
	}
	switch q.cfg.Policy {
	case Deadline:
		sort.Slice(act, func(i, j int) bool {
			di, dj := act[i].deadline(), act[j].deadline()
			if di != dj {
				return di < dj
			}
			return act[i].Idx < act[j].Idx
		})
	case FairShare:
		type share struct {
			name     string
			priority float64
			entries  []*Entry
		}
		var tenants []share
		index := make(map[string]int)
		for _, e := range act {
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
			tenants[i].priority = float64(grants[tenants[i].name]) / weight
		}
		sort.Slice(tenants, func(i, j int) bool {
			if tenants[i].priority != tenants[j].priority {
				return tenants[i].priority < tenants[j].priority
			}
			return tenants[i].name < tenants[j].name
		})
		act = act[:0]
		for _, t := range tenants {
			act = append(act, t.entries...)
		}
	}
	out := make([]int, len(act))
	for i, e := range act {
		out[i] = e.Idx
	}
	return out
}

// oracleNextReduce is the seed runtime's full rescan of every entry.
func oracleNextReduce(q *Queue) *Entry {
	redRunning := make(map[string]int)
	for _, e := range q.entries {
		redRunning[e.Meta.Tenant] += e.runningReduces
	}
	var best *Entry
	for _, e := range q.entries {
		if !e.reduceEligible() {
			continue
		}
		switch q.cfg.Policy {
		case Quota:
			if c := q.cfg.QuotaSlots; c > 0 && redRunning[e.Meta.Tenant] >= c {
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

// TestQueueMatchesRecomputeOracle drives queues of all four policies
// through randomized lifecycle sequences — jobs added late, submitted out
// of index order, granted, released, requeued at task level, reset and
// finished — and checks after every step that MapOrder and NextReduce
// return what a recompute over every registered entry returns.
func TestQueueMatchesRecomputeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cluster := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	tenants := []string{"", "a", "b", "c"}
	type mapTask struct {
		idx  int
		task *sched.Task
	}
	for trial := 0; trial < 300; trial++ {
		cfg := Config{Policy: Kind(trial % 4), QuotaSlots: rng.Intn(3)}
		q, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		add := func() {
			meta := JobMeta{Tenant: tenants[rng.Intn(len(tenants))]}
			if rng.Intn(2) == 0 {
				meta.Weight = float64(1 + rng.Intn(4))
			}
			if rng.Intn(2) == 0 {
				meta.Deadline = float64(10 * (1 + rng.Intn(3))) // few values: ties happen
			}
			q.Add(meta, rng.Intn(4)) // some jobs map-only
		}
		for n := 2 + rng.Intn(8); n > 0; n-- {
			add()
		}
		var launched []mapTask // handed to a node: running or completed
		pick := func(ok func(*Entry) bool) *Entry {
			var cands []*Entry
			for _, e := range q.entries {
				if ok(e) {
					cands = append(cands, e)
				}
			}
			if len(cands) == 0 {
				return nil
			}
			return cands[rng.Intn(len(cands))]
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(10) {
			case 0:
				add()
			case 1:
				if e := pick(func(e *Entry) bool { return !e.submitted }); e != nil {
					q.Submit(e.Idx, pendingJob(e.Idx, 1+rng.Intn(3)))
				}
			case 2, 3:
				// One heartbeat: the preferred job launches a task.
				if order := q.MapOrder(); len(order) > 0 {
					as := sched.LocalityFirst{}.Assign(&sched.Env{Cluster: cluster, Jobs: order[:1]},
						sched.Heartbeat{Node: topology.NodeID(rng.Intn(4)), FreeMapSlots: 1})
					for _, a := range as {
						q.MapGranted(a.Task.Job)
						launched = append(launched, mapTask{a.Task.Job, a.Task})
					}
				}
			case 4:
				if e := pick(func(e *Entry) bool { return e.runningMaps > 0 }); e != nil {
					q.MapReleased(e.Idx)
				}
			case 5:
				// Failure recovery returns a launched task to its job's pool.
				if len(launched) > 0 {
					i := rng.Intn(len(launched))
					mt := launched[i]
					launched = append(launched[:i], launched[i+1:]...)
					e := q.entries[mt.idx]
					e.SJ.Requeue(mt.task, rng.Intn(2) == 0)
					if e.runningMaps > 0 {
						q.MapReleased(mt.idx)
					}
				}
			case 6:
				if e := q.NextReduce(); e != nil {
					q.ReduceGranted(e.Idx)
				}
			case 7:
				if e := pick(func(e *Entry) bool { return e.runningReduces > 0 }); e != nil {
					q.ReduceReleased(e.Idx)
				}
			case 8:
				if e := pick(func(e *Entry) bool { return e.runningReduces > 0 && !e.finished }); e != nil {
					q.ReduceReset(e.Idx)
				}
			case 9:
				// The runtime finishes a job once its maps are done; the
				// queue must also cope with any other moment.
				e := pick(func(e *Entry) bool { return e.submitted && !e.finished })
				if e != nil {
					q.JobFinished(e.Idx)
					kept := launched[:0]
					for _, mt := range launched {
						if mt.idx != e.Idx {
							kept = append(kept, mt)
						}
					}
					launched = kept
				}
			}
			if got, want := ids(q.MapOrder()), oracleMapOrder(q); !equalInts(got, want) {
				t.Fatalf("trial %d (%v) step %d: MapOrder = %v, oracle %v", trial, cfg.Policy, step, got, want)
			}
			if got, want := q.NextReduce(), oracleNextReduce(q); got != want {
				t.Fatalf("trial %d (%v) step %d: NextReduce = %+v, oracle %+v", trial, cfg.Policy, step, got, want)
			}
		}
	}
}

// storm returns a queue with n submitted jobs of three weighted tenants,
// every fourth with a deadline, each with pending tasks.
func storm(tb testing.TB, policy Kind, n int) *Queue {
	q, err := New(Config{Policy: policy, QuotaSlots: n})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		meta := JobMeta{Tenant: string(rune('a' + i%3)), Weight: float64(1 + i%3)}
		if i%4 == 0 {
			meta.Deadline = float64(n - i)
		}
		q.Submit(q.Add(meta, 2), pendingJob(i, 4))
	}
	return q
}

func TestMapOrderSteadyStateAllocatesNothing(t *testing.T) {
	for _, policy := range []Kind{Fifo, FairShare, Quota, Deadline} {
		q := storm(t, policy, 200)
		q.MapOrder() // sizes the reused scratch
		allocs := testing.AllocsPerRun(20, func() {
			q.MapGranted(7)
			q.MapOrder()
			q.MapReleased(7)
		})
		if allocs != 0 {
			t.Errorf("%v: MapOrder allocates %.0f times per call, want 0", policy, allocs)
		}
	}
}

var orderSink []*sched.Job

func BenchmarkMapOrder(b *testing.B) {
	for _, policy := range []Kind{Fifo, FairShare, Quota, Deadline} {
		b.Run(fmt.Sprintf("%v/jobs=2000", policy), func(b *testing.B) {
			q := storm(b, policy, 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.MapGranted(i % 2000)
				orderSink = q.MapOrder()
			}
		})
	}
}

// TestRequeueKeepsTenantQueue checks the white-box half of the mid-storm
// failure property: a job whose tasks are requeued after a node failure
// re-enters its own tenant's ordering, not some other queue position.
func TestRequeueKeepsTenantQueue(t *testing.T) {
	q, _ := New(Config{Policy: FairShare})
	q.Add(JobMeta{Tenant: "a", Weight: 1}, 0)
	q.Add(JobMeta{Tenant: "b", Weight: 1}, 0)
	q.Submit(0, pendingJob(0, 4))
	q.Submit(1, pendingJob(1, 4))

	// Grant b twice: tenant a must come first now.
	q.MapGranted(1)
	q.MapGranted(1)
	order := q.MapOrder()
	if order[0].ID != 0 {
		t.Fatalf("a should lead after b's grants: %v", ids(order))
	}

	// A failure requeues one of b's running maps: MapReleased drops b's
	// running count, and b's job stays in b's position (grants are
	// cumulative, so a still leads).
	q.MapReleased(1)
	order = q.MapOrder()
	if !equalInts(ids(order), []int{0, 1}) {
		t.Fatalf("post-requeue order = %v", ids(order))
	}
	if got := q.entries[1].grantedMaps; got != 2 {
		t.Fatalf("cumulative grants lost on requeue: %d", got)
	}
}
