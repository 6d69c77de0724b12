package netsim

// Equivalence harness pinning the incremental solver + batched admission
// against the reference configuration (refRecompute + one startFlow per
// transfer), both on the one engine. The two worlds must produce
// bitwise-identical completion schedules, rate allocations, and byte
// accounting for arbitrary interleavings of flow arrivals, batch
// arrivals, cancellations, and engine events of the caller's own landing
// on the very instant a flow completes, and cancellations and admissions made
// from inside a completion callback. With admission held the same, the
// order in which the engine dispatches everything — completions and the
// caller's events alike — must match too, un-normalised: that is the
// contract the incremental solver's single completion event rests on.
// Every run, reference included, is also checked by the property oracle
// (oracle_test.go) after every solve that fills.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

type flowSpec struct {
	src, dst topology.NodeID
	bytes    float64
}

type scenarioOp struct {
	at     float64
	batch  []flowSpec // non-empty: start these flows; empty: cancel
	victim int        // cancel target, index into flows started so far
	// marker: schedule an engine event of the scenario's own at the instant
	// the next flow completion is due (bit for bit). It is scheduled after
	// the solve that scheduled that completion, so it must run after the
	// first completion of the instant and before the ones the completion's
	// re-solve schedules. markerLocal makes it admit a node-local flow —
	// no solve — at that point of the instant.
	marker      bool
	markerLocal bool
	// hedge makes the batch a hedged read: the first of its flows to
	// complete cancels the others from inside its completion callback —
	// flows admitted before it, which may sit in front of the drain cursor.
	hedge bool
	// fanout is admitted from inside the completion callback of the
	// batch's one flow, at the instant it completes: a shuffle's fan-out
	// landing behind the drain cursor, in the middle of a finish cascade.
	fanout []flowSpec
}

// equivCluster is the legacy scenario cluster: 12 nodes over 3 racks.
func equivCluster() *topology.Cluster {
	return topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1})
}

// equivFatTree is the multi-tier scenario cluster: 12 nodes in a 2-pod
// fat tree with oversubscribed edge and pod tiers and a finite core, so
// every tier's links can saturate.
func equivFatTree() *topology.Cluster {
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3,
		NodeBps: 200 * Mbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		panic(err)
	}
	spec.CoreBps = 150 * Mbps
	c, err := topology.New(topology.Config{Spec: &spec, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		panic(err)
	}
	return c
}

// equivWorld picks one of six scenario worlds: four legacy two-level
// network shapes (finite and unlimited NICs, a finite core, and
// exclusive-hold mode) plus the fat-tree cluster in both contention
// modes, exercising the multi-tier link graph.
func equivWorld(sel byte) (*topology.Cluster, Config) {
	switch sel % 6 {
	case 0:
		return equivCluster(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps}
	case 1:
		return equivCluster(), Config{RackBps: 100 * Mbps} // unlimited NICs
	case 2:
		return equivCluster(), Config{RackBps: 120 * Mbps, NodeBps: 150 * Mbps, CoreBps: 200 * Mbps}
	case 3:
		return equivCluster(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps, Mode: ExclusiveHold}
	case 4:
		return equivFatTree(), Config{} // capacities from the spec
	default:
		return equivFatTree(), Config{Mode: ExclusiveHold}
	}
}

// decodeOps turns fuzz bytes into a scenario: each 4-byte group is one
// op. Zero-byte flows, node-local flows, same-instant ops, cancels of
// arbitrary (possibly finished) flows, markers tied with a completion, and
// cancels and batches issued by completion callbacks are all reachable on
// purpose.
func decodeOps(data []byte) []scenarioOp {
	var ops []scenarioOp
	at := 0.0
	for i := 0; i+4 <= len(data) && len(ops) < 64; i += 4 {
		kind, a, b, dt := data[i], data[i+1], data[i+2], data[i+3]
		at += float64(dt%8) * 0.35 // %8==0 keeps the next op at the same instant
		switch kind % 7 {
		case 0, 1: // single-flow start
			ops = append(ops, scenarioOp{at: at, batch: []flowSpec{specFrom(a, b)}})
		case 2: // batch start (fan-in/fan-out burst)
			k := int(a%5) + 2
			batch := make([]flowSpec, k)
			for j := range batch {
				batch[j] = specFrom(a+byte(j*41), b+byte(j*17))
			}
			ops = append(ops, scenarioOp{at: at, batch: batch})
		case 3: // cancel
			ops = append(ops, scenarioOp{at: at, victim: int(a)})
		case 4: // marker at the next completion instant
			ops = append(ops, scenarioOp{at: at, marker: true, markerLocal: a%2 == 1})
		case 5: // hedged read: the first completion cancels the rest
			batch := make([]flowSpec, int(a%3)+2)
			for j := range batch {
				batch[j] = specFrom(a+byte(j*41), b+byte(j*17))
			}
			ops = append(ops, scenarioOp{at: at, batch: batch, hedge: true})
		case 6: // fan-out from the node a completing flow delivered to
			trigger := specFrom(a, b)
			fan := make([]flowSpec, int(b%5)+2)
			for j := range fan {
				fan[j] = specFrom(a+byte(j*29), b+byte(j*13))
				fan[j].src = trigger.dst
			}
			ops = append(ops, scenarioOp{at: at, batch: []flowSpec{trigger}, fanout: fan})
		}
	}
	return ops
}

func specFrom(a, b byte) flowSpec {
	return flowSpec{
		src:   topology.NodeID(a % 12),
		dst:   topology.NodeID((a / 12) % 12),
		bytes: float64(b%16) * 2.5e6, // includes zero-byte flows
	}
}

// world is one configuration a scenario runs under.
type world struct {
	reference bool // solve with refRecompute instead of the package's solver
	batched   bool // StartFlows per op instead of one startFlow per transfer
	// fill solves by advance then fill, so every solve runs progressive
	// filling and none is answered by the drain test.
	fill bool
}

var (
	optimizedWorld = world{batched: true}
	referenceWorld = world{reference: true}
)

// outcome is an exact fingerprint of everything observable in a scenario
// run: per-flow completion times (bits), post-op rate snapshots (bits),
// bytes moved, and the order the engine dispatched completions and
// markers in.
type outcome struct {
	finishes   []string // sorted by (time, flow ID)
	snaps      []string
	order      []string // dispatch order, un-normalised
	bytesMoved float64
	stats      Stats
	broken     string // the first violation of the oracle or checkBookkeeping
	checked    int    // solves the oracle checked
	// What the callback ops reached: hedge losers cancelled from in front
	// of the drain cursor, and fan-outs admitted behind a cursor past 0.
	aheadCancels, behindAdmits int
}

// beforeCursor reports whether f sits in front of n's drain cursor at this
// instant.
func beforeCursor(n *Net, f *Flow) bool {
	i := slices.Index(n.flows, f)
	return n.instant == n.eng.Now() && i >= 0 && i < n.drainFrom
}

// checkBookkeeping holds the solver's shortcuts to what they stand for:
// owned counts the flows that hold an event of their own, and while the
// clock is at instant every flow is advanced to it and every flow before
// the drain cursor is proved due later under drainHi.
func checkBookkeeping(n *Net) error {
	owned := 0
	for _, f := range n.flows {
		if f.ev != nil {
			owned++
		}
	}
	if owned != n.owned {
		return fmt.Errorf("%d flows own an event, owned = %d", owned, n.owned)
	}
	now := n.eng.Now()
	if n.instant != now {
		return nil
	}
	if n.drainFrom > len(n.flows) {
		return fmt.Errorf("drain cursor %d past %d flows", n.drainFrom, len(n.flows))
	}
	for i, f := range n.flows {
		if f.updateTime != now {
			return fmt.Errorf("flow %d last advanced at %v, not at the instant %v", f.ID, f.updateTime, now)
		}
		if i < n.drainFrom && !(f.limited && f.remaining > 0 && now+f.remaining/n.drainHi > now) {
			return fmt.Errorf("flow %d before the drain cursor %d is not due later (remaining %v, hi %v)", f.ID, n.drainFrom, f.remaining, n.drainHi)
		}
	}
	return nil
}

// nextCompletion returns the instant the earliest active flow is due to
// complete, computed like the solvers compute it from state both keep
// identical: the last solve ran at f.updateTime for every flow it saw.
// Flows no solve has seen yet are due now, and so is the completion a
// drained solve has pending: the rates on n.flows are then the last
// filling's, not this instant's.
func nextCompletion(n *Net, now sim.Time) (sim.Time, bool) {
	if n.drained {
		return now, true
	}
	best, ok := 0.0, false
	for _, f := range n.flows {
		dt, due := f.timeToFinish()
		if !due {
			continue
		}
		if t := math.Max(now, f.updateTime+dt); !ok || t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runScenario executes ops on a fresh engine+net configured as w, with the
// property oracle after every filling solve and its ledger on every flow.
func runScenario(ops []scenarioOp, c *topology.Cluster, cfg Config, w world) outcome {
	eng := sim.New()
	n, err := New(eng, c, cfg)
	if err != nil {
		panic(err)
	}
	var out outcome
	fail := func(where string, err error) {
		if out.broken == "" {
			out.broken = fmt.Sprintf("%s at %v: %v", where, eng.Now(), err)
		}
	}
	if w.reference {
		n.solve = n.refRecompute
	}
	if w.fill {
		n.solve = func() { n.fill(n.advance()) }
	}
	withOracle(n, func(err error) {
		out.checked++
		if err != nil {
			fail("solve", err)
		}
	})
	var books ledger
	books.install(n, Hooks{})
	// created lists every flow's ID in start order; live maps the IDs of
	// the flows not yet finished or cancelled to their records, which the
	// Net takes back at the end.
	var created []int
	live := map[int]*Flow{}
	type fin struct {
		id int
		at sim.Time
	}
	var fins []fin
	check := func(where string) {
		if err := checkBookkeeping(n); err != nil {
			fail(where, err)
		}
	}
	done := func(f *Flow) {
		delete(live, f.ID)
		fins = append(fins, fin{f.ID, eng.Now()})
		out.order = append(out.order, fmt.Sprintf("f%d@%x", f.ID, math.Float64bits(eng.Now())))
		check(fmt.Sprintf("completion of flow %d", f.ID))
	}
	cancel := func(id int) {
		if f := live[id]; f != nil {
			delete(live, id)
			n.Cancel(f)
		}
	}
	// start admits specs as the world admits, each flow calling done and
	// then then (if set) on completion, and returns their IDs.
	start := func(specs []flowSpec, then func()) []int {
		cb := done
		if then != nil {
			cb = func(f *Flow) {
				done(f)
				then()
				check(fmt.Sprintf("callback of flow %d", f.ID))
			}
		}
		var flows []*Flow
		if w.batched {
			reqs := make([]FlowReq, len(specs))
			for i, s := range specs {
				reqs[i] = FlowReq{Src: s.src, Dst: s.dst, Bytes: s.bytes, Done: cb}
			}
			flows = n.StartFlows(reqs)
		} else {
			for _, s := range specs {
				flows = append(flows, startFlow(n, s.src, s.dst, s.bytes, cb))
			}
		}
		ids := make([]int, len(flows))
		for i, f := range flows {
			ids[i], live[f.ID] = f.ID, f
		}
		return ids
	}
	for i, op := range ops {
		i, op := i, op
		eng.ScheduleAt(op.at, func() {
			switch {
			case op.marker:
				at, ok := nextCompletion(n, eng.Now())
				if !ok {
					return
				}
				eng.ScheduleAt(at, func() {
					out.order = append(out.order, fmt.Sprintf("m%d@%x", i, math.Float64bits(eng.Now())))
					if op.markerLocal {
						f := startFlow(n, 2, 2, 1e6, done)
						created, live[f.ID] = append(created, f.ID), f
					}
				})
			case op.hedge:
				var group []int
				group = start(op.batch, func() {
					for _, id := range group {
						if g := live[id]; g != nil && beforeCursor(n, g) {
							out.aheadCancels++
						}
						cancel(id) // the winner has finished: skipped
					}
					group = nil
				})
				created = append(created, group...)
			case op.fanout != nil:
				created = append(created, start(op.batch, func() {
					if n.instant == eng.Now() && n.drainFrom > 0 {
						out.behindAdmits++
					}
					created = append(created, start(op.fanout, nil)...)
				})...)
			case len(op.batch) == 0:
				if len(created) > 0 {
					cancel(created[op.victim%len(created)])
				}
			default:
				created = append(created, start(op.batch, nil)...)
			}
			check(fmt.Sprintf("op %d", i))
		})
		// Snapshot at an off-grid instant (ops land on multiples of 0.35)
		// so every same-instant cascade has settled: mid-instant rates are
		// transient — e.g. a zero-byte batch member contends until its
		// dt=0 completion fires later in the same instant — and never
		// govern any progress, so only quiescent state must match.
		eng.ScheduleAt(op.at+0.175, func() {
			snap := fmt.Sprintf("t=%x n=%d/%d:", math.Float64bits(eng.Now()), len(n.flows), len(n.waiting))
			for _, id := range created {
				if f := live[id]; f == nil {
					snap += fmt.Sprintf(" %d:done", id)
				} else {
					snap += fmt.Sprintf(" %d:%x", id, math.Float64bits(f.rate))
				}
			}
			out.snaps = append(out.snaps, snap)
		})
	}
	eng.Run()
	if err := books.close(); err != nil {
		fail("end of run", err)
	}
	// Same-instant finish order may legitimately differ between batched
	// and sequential admission (a batch admits every flow before
	// dispatching, so immediate completions and hold dispatches swap
	// sequence numbers), so `finishes` normalizes equal-time finishes by
	// flow ID; `order` does not. The times themselves must match
	// bit-for-bit.
	sort.SliceStable(fins, func(i, j int) bool {
		if fins[i].at != fins[j].at {
			return fins[i].at < fins[j].at
		}
		return fins[i].id < fins[j].id
	})
	for _, x := range fins {
		out.finishes = append(out.finishes, fmt.Sprintf("%d@%x", x.id, math.Float64bits(x.at)))
	}
	out.bytesMoved = books.finished
	out.stats = n.Stats()
	return out
}

// diffStrings reports the first index at which two fingerprints differ.
func diffStrings(t *testing.T, what string, got, want []string, cfg Config) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s count diverged: %d vs %d (cfg %+v)", what, len(got), len(want), cfg)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %d diverged:\ngot:  %s\nwant: %s\n(cfg %+v)", what, i, got[i], want[i], cfg)
		}
	}
}

// checkEquivalence runs the optimized and reference worlds over the same
// scenario and reports the first divergence or oracle violation; then,
// holding admission the same so that nothing needs normalising, it holds
// the incremental solver to the reference's exact dispatch order, and a
// run in which every solve fills to the run that drains, quiescent rates included.
func checkEquivalence(t *testing.T, data []byte) outcome {
	t.Helper()
	if len(data) == 0 {
		return outcome{}
	}
	cluster, cfg := equivWorld(data[0])
	return checkScenario(t, decodeOps(data[1:]), cluster, cfg)
}

// checkScenario is checkEquivalence on ops already decoded; it returns the
// incremental solver's run under sequential admission.
func checkScenario(t *testing.T, ops []scenarioOp, cluster *topology.Cluster, cfg Config) outcome {
	t.Helper()
	got := runScenario(ops, cluster, cfg, optimizedWorld)
	want := runScenario(ops, cluster, cfg, referenceWorld)
	inc := runScenario(ops, cluster, cfg, world{})
	fill := runScenario(ops, cluster, cfg, world{fill: true})
	for _, o := range []outcome{got, want, inc, fill} {
		if o.broken != "" {
			t.Fatalf("oracle: %s (cfg %+v)", o.broken, cfg)
		}
	}
	if got.bytesMoved != want.bytesMoved {
		t.Fatalf("BytesMoved diverged: incremental=%v reference=%v (cfg %+v)", got.bytesMoved, want.bytesMoved, cfg)
	}
	diffStrings(t, "finish", got.finishes, want.finishes, cfg)
	diffStrings(t, "snapshot", got.snaps, want.snaps, cfg)

	diffStrings(t, "dispatch order, incremental vs reference,", inc.order, want.order, cfg)
	diffStrings(t, "dispatch order, every solve filling vs draining,", fill.order, inc.order, cfg)
	diffStrings(t, "finish, every solve filling vs draining,", fill.finishes, inc.finishes, cfg)
	diffStrings(t, "snapshot, every solve filling vs draining,", fill.snaps, inc.snaps, cfg)
	if fill.stats.Deferred != 0 || fill.stats.Solves != inc.stats.Solves || fill.stats.FlowsVisited != inc.stats.FlowsVisited {
		t.Fatalf("solve counts: filling %+v, draining %+v (cfg %+v)", fill.stats, inc.stats, cfg)
	}
	return inc
}

// TestIncrementalMatchesReference drives many deterministic pseudo-random
// scenarios through checkEquivalence — the always-on version of the
// fuzzer below — and requires the callback ops to have reached the drain
// cursor from both sides.
func TestIncrementalMatchesReference(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return byte(rng)
	}
	ahead, behind, checked := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+4*40)
		for i := range data {
			data[i] = next()
		}
		data[0] = byte(trial) // sweep all six scenario worlds
		inc := checkEquivalence(t, data)
		ahead += inc.aheadCancels
		behind += inc.behindAdmits
		checked += inc.checked
	}
	if ahead == 0 || behind == 0 {
		t.Errorf("callback ops never met the drain cursor: %d cancels ahead of it, %d admissions behind it", ahead, behind)
	}
	if checked == 0 {
		t.Error("the oracle checked no solve")
	}
	t.Logf("callback ops: %d cancels ahead of the drain cursor, %d admissions behind it; the oracle checked %d fillings", ahead, behind, checked)
}

// TestBatchedStartMatchesSequential pins the StartFlows contract directly:
// same IDs and completion schedule as one startFlow per request, holding
// engine and solver fixed.
func TestBatchedStartMatchesSequential(t *testing.T) {
	ops := []scenarioOp{
		{at: 0, batch: []flowSpec{{0, 4, 10e6}, {1, 4, 20e6}, {5, 4, 10e6}, {4, 4, 1e6}, {8, 4, 0}}},
		{at: 1.5, batch: []flowSpec{{9, 2, 30e6}, {10, 2, 30e6}}},
	}
	for _, cfg := range []Config{
		{RackBps: 100 * Mbps, NodeBps: 200 * Mbps},
		{RackBps: 100 * Mbps, Mode: ExclusiveHold},
	} {
		bat := runScenario(ops, equivCluster(), cfg, world{batched: true})
		seq := runScenario(ops, equivCluster(), cfg, world{})
		if bat.bytesMoved != seq.bytesMoved {
			t.Fatalf("cfg %+v: batched run diverged in volume", cfg)
		}
		diffStrings(t, "finish, batched vs sequential,", bat.finishes, seq.finishes, cfg)
	}
}

// FuzzNetsimEquivalence explores arbitrary arrival/departure/cancel
// sequences. Any divergence between the incremental and reference worlds
// is a bug in the incremental solver or the batch admission path.
func FuzzNetsimEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 7, 9, 0, 2, 30, 4, 1, 3, 1, 0, 0})
	f.Add([]byte{2, 2, 200, 15, 0, 2, 100, 3, 3, 0, 50, 200, 2, 3, 0, 0, 0})
	f.Add([]byte{3, 1, 13, 8, 4, 1, 26, 8, 0, 3, 0, 0, 1, 1, 40, 12, 7})
	f.Add([]byte{4, 0, 7, 9, 0, 2, 30, 4, 1, 1, 80, 11, 3, 3, 1, 0, 0})
	f.Add([]byte{5, 2, 200, 15, 0, 1, 100, 3, 3, 0, 50, 200, 2, 3, 0, 0, 0})
	f.Add([]byte{0, 2, 4, 6, 0, 4, 1, 0, 0, 4, 0, 0, 0, 1, 17, 6, 2, 4, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, data)
	})
}

// TestDispatchOrderMatchesReference spells out, on two small scenarios,
// the engine-order contract that lets the incremental solver schedule one
// completion event per network: where a solve's completions sort against
// the caller's own events of the same instant, and where flows admitted
// without a solve do. Both solvers must produce the order written here.
func TestDispatchOrderMatchesReference(t *testing.T) {
	type run struct {
		eng  *sim.Engine
		n    *Net
		log  []string
		done func(*Flow)
	}
	start := func(reference bool) *run {
		r := &run{eng: sim.New()}
		r.n = mustNet(t, r.eng, twoRacks(), Config{RackBps: 100 * Mbps})
		if reference {
			r.n.solve = r.n.refRecompute
		}
		r.done = func(f *Flow) { r.log = append(r.log, fmt.Sprintf("f%d", f.ID)) }
		return r
	}
	mark := func(r *run, name string) func() {
		return func() { r.log = append(r.log, name) }
	}
	// Four equal flows share rack 0's uplink, so they are due at one
	// instant: 12.5 MB each at a quarter of 12.5 MB/s.
	const due = 4.0
	equal := []FlowReq{
		{Src: 0, Dst: 3, Bytes: 12.5e6}, {Src: 1, Dst: 4, Bytes: 12.5e6},
		{Src: 2, Dst: 3, Bytes: 12.5e6}, {Src: 0, Dst: 4, Bytes: 12.5e6},
	}

	scenarios := []struct {
		name   string
		script func(r *run)
		want   []string
	}{
		{
			// A marker scheduled before the solve runs before all of the
			// solve's completions; one scheduled after it runs after the
			// first of them and before the rest, which that completion's
			// own solve has scheduled anew. The flows tie on time, so they
			// finish in admission order. The node-local and the zero-byte
			// flow admitted by that marker get events of their own, which
			// the next solve — f1's completion — absorbs behind "after2".
			name: "markers tied with equal flows",
			script: func(r *run) {
				r.eng.ScheduleAt(due, mark(r, "before"))
				for i := range equal {
					equal[i].Done = r.done
				}
				r.n.StartFlows(equal)
				r.eng.ScheduleAt(due, func() {
					r.log = append(r.log, "after")
					startFlow(r.n, 2, 2, 1e6, r.done) // f4, node-local
					startFlow(r.n, 1, 4, 0, r.done)   // f5, zero bytes over a real path
					r.eng.ScheduleAt(due, mark(r, "after2"))
				})
			},
			want: []string{"before", "f0", "after", "f1", "after2", "f2", "f3", "f4", "f5"},
		},
		{
			// No completion is due at t=1. The node-local flow's own event
			// sits between the two markers; its completion solves, and the
			// zero-byte flow moves from its own event — which was ahead of
			// "b" — into that solve's, behind "b".
			name: "no-solve admissions between two markers",
			script: func(r *run) {
				startFlow(r.n, 0, 3, 125e6, r.done) // f0, due at t=10
				r.eng.ScheduleAt(1, func() {
					r.log = append(r.log, "a")
					startFlow(r.n, 2, 2, 1e6, r.done) // f1, node-local
					startFlow(r.n, 1, 4, 0, r.done)   // f2, zero bytes over a real path
					r.eng.ScheduleAt(1, mark(r, "b"))
				})
			},
			want: []string{"a", "f1", "b", "f2", "f0"},
		},
	}
	for _, sc := range scenarios {
		for _, reference := range []bool{true, false} {
			r := start(reference)
			sc.script(r)
			r.eng.Run()
			if err := r.n.Drained(); err != nil {
				t.Fatalf("%s, reference %v: %v", sc.name, reference, err)
			}
			if fmt.Sprint(r.log) != fmt.Sprint(sc.want) {
				t.Errorf("%s, reference %v: dispatch order %v, want %v", sc.name, reference, r.log, sc.want)
			}
		}
	}
}

// TestOneEventPerSolve pins what the single completion event buys, in
// counts: the engine sees at most one event per solve plus one per flow
// admitted without a solve plus the caller's own — not one per active
// flow per solve, which is what the reference solver schedules.
func TestOneEventPerSolve(t *testing.T) {
	const flows, noSolve, callers = 48, 2, 1
	run := func(reference bool) (sim.Stats, Stats) {
		eng := sim.New()
		n := mustNet(t, eng, equivCluster(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps})
		if reference {
			n.solve = n.refRecompute
		}
		reqs := make([]FlowReq, 0, flows+noSolve)
		for i := 0; i < flows; i++ { // distinct sizes: one completion, one solve, at a time
			reqs = append(reqs, FlowReq{Src: topology.NodeID(i % 12), Dst: topology.NodeID((i + 5) % 12), Bytes: float64(1+i) * 1e6})
		}
		reqs = append(reqs, FlowReq{Src: 3, Dst: 3, Bytes: 1e6}, FlowReq{Src: 0, Dst: 7, Bytes: 0})
		eng.Schedule(0, func() { n.StartFlows(reqs) })
		eng.Run()
		if err := n.Drained(); err != nil {
			t.Fatal(err)
		}
		return eng.Stats(), n.Stats()
	}
	es, ns := run(false)
	if ns.Solves < flows || ns.FlowsVisited < flows*flows/2 {
		t.Fatalf("scenario too small to tell: %+v", ns)
	}
	if bound := ns.Solves + noSolve + callers; es.Scheduled > bound {
		t.Errorf("scheduled %d events, want at most %d (%d solves + %d no-solve flows + %d caller events)",
			es.Scheduled, bound, ns.Solves, noSolve, callers)
	}
	if es.Dispatched != flows+noSolve+callers || es.Scheduled != es.Dispatched+es.Cancelled {
		t.Errorf("engine counters do not add up: %+v", es)
	}
	if es.MaxQueue > 1+noSolve+callers {
		t.Errorf("queue reached %d events, want at most %d", es.MaxQueue, 1+noSolve+callers)
	}
	// The counters tell the two designs apart: the reference schedules an
	// event for every flow a solve visits, and dispatches the same ones.
	rs, rn := run(true)
	// The reference defers nothing and counts no filling iterations.
	ns.Deferred, ns.Iterations, ns.Replayed, ns.LinkVisits = 0, 0, 0, 0
	if rn != ns || rs.Dispatched != es.Dispatched {
		t.Errorf("reference run differs: net %+v vs %+v, dispatched %d vs %d", rn, ns, rs.Dispatched, es.Dispatched)
	}
	if rs.Scheduled < rn.FlowsVisited/2 {
		t.Errorf("reference scheduled %d events over %d flow visits: the counters no longer see per-flow events", rs.Scheduled, rn.FlowsVisited)
	}
}
