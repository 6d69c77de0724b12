package sched

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// fourNodeCluster builds the Figure 4 cluster: 4 nodes in 2 racks, one map
// slot each. Node 0 plays the failed "Node 1" of the figure.
func fourNodeCluster() *topology.Cluster {
	return topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
}

// specsFig4 builds 12 map tasks, 3 per node, with node 0 failed so its 3
// tasks are degraded (the Figure 4 workload).
func specsFig4(c *topology.Cluster) []TaskSpec {
	var specs []TaskSpec
	for s := 0; s < 6; s++ {
		for i := 0; i < 2; i++ {
			holder := topology.NodeID((s*2 + i) % 4)
			specs = append(specs, TaskSpec{
				Block:  erasure.BlockID{Stripe: s, Index: i},
				Holder: holder,
				Lost:   !c.Alive(holder),
			})
		}
	}
	return specs
}

func envFor(c *topology.Cluster, jobs ...*Job) *Env {
	return &Env{Cluster: c, Jobs: jobs, DegradedReadTime: 10}
}

func TestClassString(t *testing.T) {
	for _, cl := range []Class{ClassNodeLocal, ClassRackLocal, ClassRemote, ClassDegraded, Class(9)} {
		if cl.String() == "" {
			t.Fatal("empty class string")
		}
	}
}

func TestNewJobCounters(t *testing.T) {
	c := fourNodeCluster()
	c.FailNode(0)
	j := NewJob(0, specsFig4(c))
	m, md := j.Totals()
	if m != 12 || md != 3 {
		t.Fatalf("totals = %d/%d, want 12/3", m, md)
	}
	lm, lmd := j.Launched()
	if lm != 0 || lmd != 0 || j.Done() || j.PendingDegraded() != 3 {
		t.Fatal("fresh job state wrong")
	}
	if len(j.tasks) != 12 {
		t.Fatal("Tasks() wrong")
	}
}

func TestLocalityFirstOrder(t *testing.T) {
	c := fourNodeCluster()
	c.FailNode(0)
	j := NewJob(0, specsFig4(c))
	env := envFor(c, j)
	lf := LocalityFirst{}

	// Node 1 asks for everything at once: expect its 3 node-local tasks,
	// then rack-local (node 0 is failed so none pending non-degraded
	// there), then remote (nodes 2, 3 holdings), then degraded.
	got := lf.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 12})
	if len(got) != 12 {
		t.Fatalf("assigned %d tasks, want 12", len(got))
	}
	wantClasses := []Class{
		ClassNodeLocal, ClassNodeLocal, ClassNodeLocal,
		ClassRemote, ClassRemote, ClassRemote, ClassRemote, ClassRemote, ClassRemote,
		ClassDegraded, ClassDegraded, ClassDegraded,
	}
	for i, a := range got {
		if a.Class != wantClasses[i] {
			t.Fatalf("assignment %d class = %v, want %v (seq: %v)", i, a.Class, wantClasses[i], classesOf(got))
		}
	}
	if !j.Done() {
		t.Fatal("job should be drained")
	}
}

func classesOf(as []Assignment) []Class {
	out := make([]Class, len(as))
	for i, a := range as {
		out[i] = a.Class
	}
	return out
}

func TestLocalityFirstPrefersRackLocalOverRemote(t *testing.T) {
	c := fourNodeCluster() // racks {0,1}, {2,3}
	specs := []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 3}, // remote for node 0
		{Block: erasure.BlockID{Stripe: 0, Index: 1}, Holder: 1}, // rack-local for node 0
	}
	j := NewJob(0, specs)
	got := LocalityFirst{}.Assign(envFor(c, j), Heartbeat{Node: 0, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassRackLocal || got[0].Task.Holder != 1 {
		t.Fatalf("got %+v, want the rack-local task", got)
	}
}

func TestBDFPacingFollowsFigure4(t *testing.T) {
	// Replay the heartbeat sequence of the Figure 4 walk-through and check
	// the degraded tasks are launched as the 1st, 5th and 9th map tasks.
	c := fourNodeCluster()
	c.FailNode(0)
	j := NewJob(0, specsFig4(c))
	env := envFor(c, j)
	bdf := BasicDegradedFirst{}

	// Heartbeats arrive one slot at a time in the order the master polls
	// slaves (nodes 1, 2, 3 round-robin), as in the example.
	var classSeq []Class
	for hbRound := 0; len(classSeq) < 12 && hbRound < 100; hbRound++ {
		for _, node := range []topology.NodeID{1, 2, 3} {
			got := bdf.Assign(env, Heartbeat{Node: node, FreeMapSlots: 1})
			for _, a := range got {
				classSeq = append(classSeq, a.Class)
			}
		}
	}
	if len(classSeq) != 12 {
		t.Fatalf("launched %d tasks, want 12 (%v)", len(classSeq), classSeq)
	}
	degradedPositions := []int{}
	for i, cl := range classSeq {
		if cl == ClassDegraded {
			degradedPositions = append(degradedPositions, i+1) // 1-based
		}
	}
	if len(degradedPositions) != 3 || degradedPositions[0] != 1 || degradedPositions[1] != 5 || degradedPositions[2] != 9 {
		t.Fatalf("degraded tasks at positions %v, want [1 5 9] (seq %v)", degradedPositions, classSeq)
	}
}

func TestBDFOneDegradedPerHeartbeat(t *testing.T) {
	c := fourNodeCluster()
	c.FailNode(0)
	// All tasks degraded: even with many free slots, one degraded per
	// heartbeat.
	specs := []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 0, Lost: true},
		{Block: erasure.BlockID{Stripe: 1, Index: 0}, Holder: 0, Lost: true},
		{Block: erasure.BlockID{Stripe: 2, Index: 0}, Holder: 0, Lost: true},
	}
	j := NewJob(0, specs)
	env := envFor(c, j)
	got := BasicDegradedFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 4})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("got %v, want exactly one degraded", classesOf(got))
	}
	// Next heartbeats pick up the rest, one each.
	got = BasicDegradedFirst{}.Assign(env, Heartbeat{Node: 2, FreeMapSlots: 4})
	if len(got) != 1 {
		t.Fatalf("second heartbeat got %d", len(got))
	}
	got = BasicDegradedFirst{}.Assign(env, Heartbeat{Node: 3, FreeMapSlots: 4})
	if len(got) != 1 {
		t.Fatalf("third heartbeat got %d", len(got))
	}
	if !j.Done() {
		t.Fatal("job should be drained")
	}
}

func TestDegradedFirstNormalModeEqualsLocalityFirst(t *testing.T) {
	// Without failures there are no degraded tasks: BDF and EDF must
	// produce exactly the same assignment sequence as LF.
	c := fourNodeCluster()
	seqFor := func(s Scheduler) []int {
		j := NewJob(0, specsFig4(c)) // no failure: nothing lost
		env := envFor(c, j)
		var seq []int
		for round := 0; round < 50 && !j.Done(); round++ {
			for node := 0; node < 4; node++ {
				for _, a := range s.Assign(env, Heartbeat{Node: topology.NodeID(node), FreeMapSlots: 1}) {
					seq = append(seq, a.Task.Index)
				}
			}
		}
		return seq
	}
	lf := seqFor(LocalityFirst{})
	bdf := seqFor(BasicDegradedFirst{})
	edf := seqFor(NewEnhancedDegradedFirst(c.NumRacks()))
	if len(lf) != 12 {
		t.Fatalf("LF only assigned %d", len(lf))
	}
	for i := range lf {
		if lf[i] != bdf[i] || lf[i] != edf[i] {
			t.Fatalf("normal-mode divergence at %d: lf=%v bdf=%v edf=%v", i, lf, bdf, edf)
		}
	}
}

func TestEDFAssignToSlaveRefusesBusySlave(t *testing.T) {
	// Node 1 holds far more pending local work than average: EDF must not
	// give it a degraded task; LF-ineligible nodes (low local load) get it.
	c := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	c.FailNode(0)
	var specs []TaskSpec
	// 9 local tasks on node 1, 1 on nodes 2 and 3, 2 degraded.
	for i := 0; i < 9; i++ {
		specs = append(specs, TaskSpec{Block: erasure.BlockID{Stripe: i, Index: 0}, Holder: 1})
	}
	specs = append(specs,
		TaskSpec{Block: erasure.BlockID{Stripe: 9, Index: 0}, Holder: 2},
		TaskSpec{Block: erasure.BlockID{Stripe: 10, Index: 0}, Holder: 3},
		TaskSpec{Block: erasure.BlockID{Stripe: 11, Index: 0}, Holder: 0, Lost: true},
		TaskSpec{Block: erasure.BlockID{Stripe: 12, Index: 0}, Holder: 0, Lost: true},
	)
	j := NewJob(0, specs)
	env := envFor(c, j)
	edf := NewEnhancedDegradedFirst(c.NumRacks())

	got := edf.Assign(env, Heartbeat{Now: 0, Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassNodeLocal {
		t.Fatalf("busy slave got %v, want its node-local task", classesOf(got))
	}
	// Node 2 has little local work: it gets the degraded task.
	got = edf.Assign(env, Heartbeat{Now: 0, Node: 2, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("idle slave got %v, want degraded", classesOf(got))
	}
}

func TestEDFAssignToRackSpacing(t *testing.T) {
	// After a degraded launch in rack 1, another degraded task must not go
	// to rack 1 until the threshold elapses, but rack 0 is fine.
	c := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	c.FailNode(0)
	specs := []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 0, Lost: true},
		{Block: erasure.BlockID{Stripe: 1, Index: 0}, Holder: 0, Lost: true},
		{Block: erasure.BlockID{Stripe: 2, Index: 0}, Holder: 0, Lost: true},
	}
	j := NewJob(0, specs)
	env := envFor(c, j) // DegradedReadTime = 10
	edf := NewEnhancedDegradedFirst(c.NumRacks())

	got := edf.Assign(env, Heartbeat{Now: 0, Node: 2, FreeMapSlots: 1}) // rack 1
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("first degraded refused: %v", classesOf(got))
	}
	// Same rack, 3 s later: refused (t_r = 3 < 10).
	got = edf.Assign(env, Heartbeat{Now: 3, Node: 3, FreeMapSlots: 1})
	if len(got) != 0 {
		t.Fatalf("rack 1 should be cooling down, got %v", classesOf(got))
	}
	// Other rack is admissible immediately.
	got = edf.Assign(env, Heartbeat{Now: 3, Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("rack 0 refused: %v", classesOf(got))
	}
	// Rack 1 after the threshold: admissible again.
	got = edf.Assign(env, Heartbeat{Now: 11, Node: 3, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("rack 1 after cooldown refused: %v", classesOf(got))
	}
}

func TestMultiJobFIFO(t *testing.T) {
	// Two jobs: job 0's tasks are assigned before job 1's.
	c := fourNodeCluster()
	j0 := NewJob(0, []TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1}})
	j1 := NewJob(1, []TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1}})
	env := envFor(c, j0, j1)
	got := LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 2})
	if len(got) != 2 || got[0].Task.Job != 0 || got[1].Task.Job != 1 {
		t.Fatalf("FIFO violated: %+v", got)
	}
}

func TestPacingNeverDeadlocks(t *testing.T) {
	// Property: for random workloads and random heartbeat orders, every
	// scheduler eventually assigns every task exactly once.
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		c := topology.MustNew(topology.Config{Nodes: 8, Racks: 2, MapSlotsPerNode: 2})
		c.FailNode(topology.NodeID(rng.Intn(8)))
		var specs []TaskSpec
		nTasks := 5 + rng.Intn(40)
		for i := 0; i < nTasks; i++ {
			holder := topology.NodeID(rng.Intn(8))
			specs = append(specs, TaskSpec{
				Block:  erasure.BlockID{Stripe: i, Index: 0},
				Holder: holder,
				Lost:   !c.Alive(holder),
			})
		}
		for _, s := range []Scheduler{LocalityFirst{}, BasicDegradedFirst{}, NewEnhancedDegradedFirst(2)} {
			j := NewJob(0, specs)
			env := envFor(c, j)
			now := 0.0
			for round := 0; round < 10000 && !j.Done(); round++ {
				node := topology.NodeID(rng.Intn(8))
				if !c.Alive(node) {
					continue
				}
				s.Assign(env, Heartbeat{Now: now, Node: node, FreeMapSlots: 1 + rng.Intn(2)})
				now += 1.5
			}
			if !j.Done() {
				return false
			}
			m, md := j.Launched()
			tm, tmd := j.Totals()
			if m != tm || md != tmd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPacingInvariantProperty(t *testing.T) {
	// Property: under BDF, after every heartbeat the pacing invariant
	// m/M >= (md-1)/Md holds (the md-th launch required m/M >= (md-1)/Md
	// at launch time).
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		c := topology.MustNew(topology.Config{Nodes: 6, Racks: 2, MapSlotsPerNode: 2})
		c.FailNode(0)
		var specs []TaskSpec
		for i := 0; i < 30; i++ {
			holder := topology.NodeID(i % 6)
			specs = append(specs, TaskSpec{
				Block:  erasure.BlockID{Stripe: i, Index: 0},
				Holder: holder,
				Lost:   holder == 0,
			})
		}
		j := NewJob(0, specs)
		env := envFor(c, j)
		bdf := BasicDegradedFirst{}
		for round := 0; round < 2000 && !j.Done(); round++ {
			node := topology.NodeID(1 + rng.Intn(5))
			before, beforeDeg := j.Launched()
			got := bdf.Assign(env, Heartbeat{Node: node, FreeMapSlots: 1})
			M, Md := j.Totals()
			for _, a := range got {
				if a.Class == ClassDegraded {
					// Admission required m*Md >= md*M with the counters
					// as they were before this launch.
					if before*Md < beforeDeg*M {
						return false
					}
				}
			}
		}
		return j.Done()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTaskDoubleAssignPanics(t *testing.T) {
	j := NewJob(0, []TaskSpec{{Block: erasure.BlockID{}, Holder: 0}})
	tk := j.Task(0)
	j.take(tk)
	defer func() {
		if recover() == nil {
			t.Fatal("double take did not panic")
		}
	}()
	j.take(tk)
}

// TestSchedulerNames pins each Kind's name and the scheduler it builds.
func TestSchedulerNames(t *testing.T) {
	for _, c := range []struct {
		kind      Kind
		name, typ string
	}{
		{KindLF, "LF", "sched.LocalityFirst"},
		{KindBDF, "BDF", "sched.BasicDegradedFirst"},
		{KindEDF, "EDF", "*sched.EnhancedDegradedFirst"},
		{KindEagerDF, "EagerDF", "sched.EagerDegradedFirst"},
		{KindDelayLF, "DelayLF", "*sched.DelayScheduling"},
	} {
		s, err := c.kind.New(2)
		if err != nil || c.kind.String() != c.name || fmt.Sprintf("%T", s) != c.typ {
			t.Errorf("%s: New = %T, %v; want %s", c.kind, s, err, c.typ)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindLF, KindBDF, KindEDF, KindEagerDF, KindDelayLF} {
		for _, name := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseKind(name); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	if _, err := ParseKind("nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("ParseKind(nope) error = %v, want one naming the input", err)
	}
}

func TestMarkHolderLost(t *testing.T) {
	c := fourNodeCluster()
	j := NewJob(0, []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1},
		{Block: erasure.BlockID{Stripe: 1, Index: 0}, Holder: 1},
		{Block: erasure.BlockID{Stripe: 2, Index: 0}, Holder: 2},
	})
	// Assign one of node 1's tasks first: it must not be reclassified.
	env := envFor(c, j)
	got := LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Task.Holder != 1 {
		t.Fatalf("setup assignment wrong: %v", got)
	}
	changed := j.MarkHolderLost(1)
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	if _, md := j.Totals(); md != 1 {
		t.Fatalf("Md = %d, want 1", md)
	}
	if j.PendingDegraded() != 1 {
		t.Fatalf("pending degraded = %d", j.PendingDegraded())
	}
	// The assigned task keeps its original class.
	if got[0].Task.Lost {
		t.Fatal("assigned task must not be reclassified")
	}
	// Idempotent-ish: no more pending tasks on holder 1.
	if j.MarkHolderLost(1) != 0 {
		t.Fatal("second MarkHolderLost must change nothing")
	}
}

func TestRequeueNormalTask(t *testing.T) {
	c := fourNodeCluster()
	j := NewJob(0, []TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1}})
	env := envFor(c, j)
	got := LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 1})
	tk := got[0].Task
	if m, _ := j.Launched(); m != 1 {
		t.Fatal("launch not counted")
	}
	j.Requeue(tk, false)
	if m, _ := j.Launched(); m != 0 {
		t.Fatal("requeue must decrement launched")
	}
	if tk.Assigned() || j.Done() {
		t.Fatal("task must be pending again")
	}
	// It can be assigned again, same class.
	got = LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassNodeLocal {
		t.Fatalf("relaunch wrong: %v", got)
	}
}

func TestRequeueBecomesDegraded(t *testing.T) {
	c := fourNodeCluster()
	j := NewJob(0, []TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1}})
	env := envFor(c, j)
	got := LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 1})
	tk := got[0].Task
	c.FailNode(1)
	j.Requeue(tk, true)
	if !tk.Lost {
		t.Fatal("task must be degraded now")
	}
	if _, md := j.Totals(); md != 1 {
		t.Fatalf("Md = %d", md)
	}
	got = LocalityFirst{}.Assign(env, Heartbeat{Node: 2, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("relaunch should be degraded: %v", got)
	}
}

func TestRequeueDegradedBackToNormal(t *testing.T) {
	// The task is first assigned while its holder is down, and requeued
	// once a healthy cluster holds its block again.
	down := fourNodeCluster()
	down.FailNode(1)
	j := NewJob(0, []TaskSpec{{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 1, Lost: true}})
	got := LocalityFirst{}.Assign(envFor(down, j), Heartbeat{Node: 2, FreeMapSlots: 1})
	tk := got[0].Task
	env := envFor(fourNodeCluster(), j)
	j.Requeue(tk, false)
	if tk.Lost {
		t.Fatal("task should be normal again")
	}
	if _, md := j.Totals(); md != 0 {
		t.Fatalf("Md = %d, want 0", md)
	}
	got = LocalityFirst{}.Assign(env, Heartbeat{Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassNodeLocal {
		t.Fatalf("relaunch should be node-local: %v", got)
	}
}

func TestRequeueUnassignedPanics(t *testing.T) {
	j := NewJob(0, []TaskSpec{{Block: erasure.BlockID{}, Holder: 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("requeue of unassigned task must panic")
		}
	}()
	j.Requeue(j.Task(0), false)
}

func TestEDFHeterogeneousPrefersFastSlaves(t *testing.T) {
	// Two slaves with equal pending local work, but node 1 is twice as
	// fast: its estimated local time t_s is half of node 2's, so EDF gives
	// the degraded task to the fast node and refuses the slow one.
	c := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	c.FailNode(0)
	var specs []TaskSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, TaskSpec{Block: erasure.BlockID{Stripe: i, Index: 0}, Holder: 1})
		specs = append(specs, TaskSpec{Block: erasure.BlockID{Stripe: i, Index: 1}, Holder: 2})
	}
	specs = append(specs,
		TaskSpec{Block: erasure.BlockID{Stripe: 9, Index: 0}, Holder: 0, Lost: true},
		TaskSpec{Block: erasure.BlockID{Stripe: 9, Index: 1}, Holder: 0, Lost: true},
	)
	j := NewJob(0, specs)
	env := envFor(c, j)
	env.PerTaskTime = func(id topology.NodeID) float64 {
		if id == 1 {
			return 10 // fast node
		}
		return 20 // slow nodes
	}
	edf := NewEnhancedDegradedFirst(c.NumRacks())

	// Fast node 1: t_s = 4x10 = 40 equals the alive-mean ((40+80+0)/3 is
	// exceeded only by the slow node), so the degraded task is admitted.
	got := edf.Assign(env, Heartbeat{Now: 0, Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("fast node got %v, want the degraded task", classesOf(got))
	}
	// Slow node 2: t_s = 4x20 = 80 is above the mean -> degraded refused,
	// local assigned instead.
	got = edf.Assign(env, Heartbeat{Now: 100, Node: 2, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassNodeLocal {
		t.Fatalf("slow node got %v, want its local task", classesOf(got))
	}
}

func TestEDFDefaultPerTaskTime(t *testing.T) {
	// Env without PerTaskTime must still work (uniform estimate).
	c := fourNodeCluster()
	c.FailNode(0)
	j := NewJob(0, []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 0, Lost: true},
	})
	env := &Env{Cluster: c, Jobs: []*Job{j}, DegradedReadTime: 5}
	edf := NewEnhancedDegradedFirst(c.NumRacks())
	got := edf.Assign(env, Heartbeat{Now: 0, Node: 1, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Class != ClassDegraded {
		t.Fatalf("got %v", classesOf(got))
	}
}

// BenchmarkEDFAssign times one EDF heartbeat on a 64-node cluster with a
// failed node while the given number of jobs, each with pending local and
// degraded tasks, sit in Env.Jobs: the AssignToSlave estimate is what
// grows with the job count.
func BenchmarkEDFAssign(b *testing.B) {
	for _, jobs := range []int{1, 200, 2000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			c := topology.MustNew(topology.Config{Nodes: 64, Racks: 8, MapSlotsPerNode: 4})
			c.FailNode(0)
			specs := make([]TaskSpec, 64)
			for i := range specs {
				specs[i] = TaskSpec{Block: erasure.BlockID{Stripe: i / 4, Index: i % 4}, Holder: topology.NodeID(i), Lost: i == 0}
			}
			env := envFor(c)
			for id := 0; id < jobs; id++ {
				env.Jobs = append(env.Jobs, NewJob(id, specs))
			}
			edf := NewEnhancedDegradedFirst(c.NumRacks())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Whatever the heartbeat takes goes straight back, so every
				// iteration sees the same queues.
				hb := Heartbeat{Now: float64(i), Node: topology.NodeID(1 + i%63), FreeMapSlots: 1}
				for _, a := range edf.Assign(env, hb) {
					env.Jobs[a.Task.Job].Requeue(a.Task, a.Task.Lost)
				}
			}
		})
	}
}

// TestPendingLocalCountersMatchRecount drives jobs through random
// take / Requeue (input lost or not) / MarkHolderLost / Recover sequences
// and checks after every step that the dense per-holder counters equal a
// recount over the holder pools.
func TestPendingLocalCountersMatchRecount(t *testing.T) {
	const nodes, firstHolders = 8, 6 // Recover can name a holder the job has not seen
	c := topology.MustNew(topology.Config{Nodes: nodes, Racks: 2, MapSlotsPerNode: 1})
	rng := stats.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		specs := make([]TaskSpec, 1+rng.Intn(24))
		for i := range specs {
			specs[i] = TaskSpec{Block: erasure.BlockID{Stripe: i}, Holder: topology.NodeID(rng.Intn(firstHolders)), Lost: rng.Intn(5) == 0}
		}
		j := NewJob(trial, specs)
		env := envFor(c, j)
		for step := 0; step < 80; step++ {
			task := j.Task(rng.Intn(len(j.tasks)))
			switch rng.Intn(4) {
			case 0: // take whatever a scheduler would hand this node
				LocalityFirst{}.Assign(env, Heartbeat{Node: topology.NodeID(rng.Intn(nodes)), FreeMapSlots: 1 + rng.Intn(2)})
			case 1:
				if task.assigned {
					j.Requeue(task, rng.Intn(2) == 0)
				}
			case 2:
				j.MarkHolderLost(topology.NodeID(rng.Intn(nodes)))
			case 3:
				j.Recover(task, topology.NodeID(rng.Intn(nodes)))
			}
			for id := topology.NodeID(0); id < nodes; id++ {
				want := 0
				if int(id) < len(j.byHolder) {
					for _, x := range j.byHolder[id].items {
						if !j.tasks[x].assigned {
							want++
						}
					}
				}
				if got := j.pendingLocalCount(id); got != want {
					t.Fatalf("trial %d step %d: node %d pending-local counter %d, recount %d", trial, step, id, got, want)
				}
			}
			for id, n := range j.pendingLocal {
				if n < 0 {
					t.Fatalf("trial %d step %d: node %d counter went negative (%d)", trial, step, id, n)
				}
			}
		}
	}
}

func TestEagerDegradedFirstTakesAllDegradedFirst(t *testing.T) {
	c := fourNodeCluster()
	c.FailNode(0)
	j := NewJob(0, specsFig4(c))
	env := envFor(c, j)
	got := (EagerDegradedFirst{}).Assign(env, Heartbeat{Node: 1, FreeMapSlots: 5})
	if len(got) != 5 {
		t.Fatalf("assigned %d", len(got))
	}
	// The three degraded tasks come first, then locals.
	for i := 0; i < 3; i++ {
		if got[i].Class != ClassDegraded {
			t.Fatalf("assignment %d = %v, want degraded (seq %v)", i, got[i].Class, classesOf(got))
		}
	}
	for i := 3; i < 5; i++ {
		if got[i].Class == ClassDegraded {
			t.Fatalf("too many degraded assignments: %v", classesOf(got))
		}
	}
}

func TestMultiJobDegradedOnePerHeartbeatAcrossJobs(t *testing.T) {
	// The isDegradedTaskAssigned flag spans the whole heartbeat: with two
	// jobs holding degraded tasks, a single heartbeat still launches at
	// most one degraded task in total.
	c := fourNodeCluster()
	c.FailNode(0)
	mk := func(id int) *Job {
		return NewJob(id, []TaskSpec{
			{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 0, Lost: true},
			{Block: erasure.BlockID{Stripe: 1, Index: 0}, Holder: 1},
		})
	}
	j0, j1 := mk(0), mk(1)
	env := envFor(c, j0, j1)
	got := (BasicDegradedFirst{}).Assign(env, Heartbeat{Node: 1, FreeMapSlots: 4})
	degraded := 0
	for _, a := range got {
		if a.Class == ClassDegraded {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("one heartbeat launched %d degraded tasks (%v)", degraded, classesOf(got))
	}
}

func TestRackLocalPreferenceScansNodeOrder(t *testing.T) {
	// popRackLocal scans rack peers in node-ID order for determinism.
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 2, MapSlotsPerNode: 1})
	j := NewJob(0, []TaskSpec{
		{Block: erasure.BlockID{Stripe: 0, Index: 0}, Holder: 2},
		{Block: erasure.BlockID{Stripe: 1, Index: 0}, Holder: 1},
	})
	env := envFor(c, j)
	got := (LocalityFirst{}).Assign(env, Heartbeat{Node: 0, FreeMapSlots: 1})
	if len(got) != 1 || got[0].Task.Holder != 1 {
		t.Fatalf("expected holder-1 task first (node order), got %+v", got)
	}
}
