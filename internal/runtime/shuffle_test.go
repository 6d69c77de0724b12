package runtime

import (
	"slices"
	"strings"
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// ledgerWorld is one job's shuffle ledger on a four-node, two-rack
// cluster, driven by hand: the test finishes maps, launches reducers and
// fails nodes, and the network delivers. Map m's chunk for reducer r
// carries m and is size(m, r) bytes.
type ledgerWorld struct {
	t      *testing.T
	s      *state
	js     *jobState
	sh     *shuffle
	size   func(m, r int) float64
	onFlow func() // run at every delivery, if set
	// delivered logs every Deliver call as {reducer, map}.
	delivered [][2]int
}

// deliverLog is a backend whose Deliver logs; the ledger calls no other
// method, and checkReducer returns before calling any while no map is
// counted complete.
type deliverLog struct {
	Backend
	w *ledgerWorld
}

func (b deliverLog) Deliver(job, reducer int, node topology.NodeID, c Chunk) error {
	w := b.w
	if w.onFlow != nil {
		w.onFlow()
	}
	w.delivered = append(w.delivered, [2]int{reducer, c.Data.(int)})
	return nil
}

func newLedgerWorld(t *testing.T, maps, reducers int, size func(m, r int) float64) *ledgerWorld {
	t.Helper()
	cluster := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	eng := sim.New()
	net, err := netsim.New(eng, cluster, netsim.Config{NodeBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	w := &ledgerWorld{t: t, size: size}
	w.s = &state{name: "ledger", eng: eng, cluster: cluster, net: net, backend: deliverLog{w: w}}
	w.js = &jobState{spec: JobSpec{Tasks: make([]sched.TaskSpec, maps)}, reducers: make([]*reducerState, reducers)}
	for r := range w.js.reducers {
		w.js.reducers[r] = &reducerState{job: w.js, idx: r}
	}
	w.sh = newShuffle(w.s, w.js)
	w.js.shuffle = w.sh
	return w
}

func (w *ledgerWorld) finish(m int, node topology.NodeID) {
	parts := make([]Chunk, len(w.js.reducers))
	for r := range parts {
		parts[r] = Chunk{Bytes: w.size(m, r), Data: m}
	}
	w.sh.mapFinished(m, node, parts)
}

func (w *ledgerWorld) launch(r int, node topology.NodeID) {
	w.js.reducers[r].launched, w.js.reducers[r].node = true, node
	w.sh.launch(r)
}

// inFlightSlots lists the slots holding a transfer, in start (flow ID)
// order.
func (w *ledgerWorld) inFlightSlots() []transfer {
	var out []transfer
	for _, t := range w.sh.slots {
		if t.flow != nil {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b transfer) int { return a.flow.ID - b.flow.ID })
	return out
}

// inFlight lists the transfers in flight as {reducer, map}, in start
// order.
func (w *ledgerWorld) inFlight() [][2]int {
	var out [][2]int
	for _, t := range w.inFlightSlots() {
		out = append(out, [2]int{t.r, t.m})
	}
	return out
}

func (w *ledgerWorld) run() {
	w.s.eng.Run()
	if w.s.err != nil {
		w.t.Fatalf("run failed: %v", w.s.err)
	}
}

func (w *ledgerWorld) wantParked(r int, want ...int) {
	w.t.Helper()
	if got := w.sh.in[r].parked; !slices.Equal(got, want) {
		w.t.Fatalf("reducer %d parks maps %v, want %v", r, got, want)
	}
}

func (w *ledgerWorld) wantHolds(r int, all bool, bytes float64) {
	w.t.Helper()
	if b, a := w.sh.received(r); a != all || b != bytes {
		w.t.Fatalf("reducer %d holds %v bytes, all %v; want %v, %v", r, b, a, bytes, all)
	}
}

func dead(c *topology.Cluster) func(topology.NodeID) bool {
	return func(id topology.NodeID) bool { return !c.Alive(id) }
}

// TestShuffleLedgerTransitions scripts the ledger through every
// transition: maps finishing before and after a reducer launches, a
// launch draining its parked maps in completion order, a reset re-parking
// in map order past outputs on dead nodes, and lose re-owing only what an
// unfinished reducer lacks.
func TestShuffleLedgerTransitions(t *testing.T) {
	w := newLedgerWorld(t, 4, 2, func(m, r int) float64 { return 100 })
	isDead := dead(w.s.cluster)

	w.launch(0, 0)
	w.finish(0, 1)
	w.finish(2, 2)
	w.finish(1, 3)
	w.wantParked(0)
	w.wantParked(1, 0, 2, 1)
	if got, want := w.inFlight(), [][2]int{{0, 0}, {0, 2}, {0, 1}}; !slices.Equal(got, want) {
		t.Fatalf("in flight %v, want %v", got, want)
	}
	w.launch(1, 2)
	w.wantParked(1)
	if got, want := w.inFlight(), [][2]int{{0, 0}, {0, 2}, {0, 1}, {1, 0}, {1, 2}, {1, 1}}; !slices.Equal(got, want) {
		t.Fatalf("in flight after launch %v, want %v", got, want)
	}
	w.run()
	w.wantHolds(0, false, 300)
	w.wantHolds(1, false, 300)

	w.finish(3, 0)
	w.run()
	w.wantHolds(0, true, 400)
	w.wantHolds(1, true, 400)
	if len(w.delivered) != 8 {
		t.Fatalf("%d deliveries, want 8: %v", len(w.delivered), w.delivered)
	}

	// Node 3 dies with map 1's output, which both reducers hold.
	w.s.cluster.FailNode(3)
	if _, lost := w.sh.lose(1, isDead); lost {
		t.Fatal("lose re-owed an output every reducer holds")
	}
	// Reducer 1 restarts: map 1's output is on a dead node, so it is not
	// parked, and now that reducer 1 lacks it, lose re-owes it.
	w.js.reducers[1].launched = false
	w.sh.reset(1)
	w.wantHolds(1, false, 0)
	w.wantParked(1, 0, 2, 3)
	if node, lost := w.sh.lose(1, isDead); !lost || node != 3 {
		t.Fatalf("lose(1) = %d, %v; want 3, true", node, lost)
	}
	// Node 2 dies with map 2's output, parked for reducer 1: it leaves
	// the parked list. Map 0's node lives, so its output is not lost.
	w.s.cluster.FailNode(2)
	if node, lost := w.sh.lose(2, isDead); !lost || node != 2 {
		t.Fatalf("lose(2) = %d, %v; want 2, true", node, lost)
	}
	w.wantParked(1, 0, 3)
	if _, lost := w.sh.lose(0, isDead); lost {
		t.Fatal("lose re-owed an output on a live node")
	}
	// Map 2 runs again on node 1 while reducer 1 is unlaunched: it parks
	// behind the survivors, and reducer 0, which holds it, is skipped.
	w.finish(2, 1)
	w.wantParked(1, 0, 3, 2)
	if got := w.inFlight(); len(got) != 0 {
		t.Fatalf("in flight %v, want none", got)
	}
}

// TestShuffleCancelTouchesOnlyDeadNodes: cancel stops, in start order,
// exactly the transfers from or to a dead node; the others arrive. Node 1
// runs map 1 and reducer 1.
func TestShuffleCancelTouchesOnlyDeadNodes(t *testing.T) {
	w := newLedgerWorld(t, 4, 2, func(m, r int) float64 { return 1e6 })
	var cancelled []int
	w.s.net.SetHooks(netsim.Hooks{Cancel: func(f *netsim.Flow) { cancelled = append(cancelled, f.ID) }})
	w.launch(0, 0)
	w.launch(1, 1)
	for m := range 4 {
		w.finish(m, topology.NodeID(m))
	}
	var want []int
	for _, t := range w.inFlightSlots() {
		if f := t.flow; f.Src == 1 || f.Dst == 1 {
			want = append(want, f.ID)
		}
	}
	w.s.cluster.FailNode(1)
	w.sh.cancel(dead(w.s.cluster))
	if len(want) != 5 || !slices.Equal(cancelled, want) {
		t.Fatalf("cancelled flows %v, want %v in start order", cancelled, want)
	}
	if got, want := w.inFlight(), [][2]int{{0, 0}, {0, 2}, {0, 3}}; !slices.Equal(got, want) {
		t.Fatalf("in flight %v, want %v", got, want)
	}
	w.run()
	if got, want := w.delivered, [][2]int{{0, 0}, {0, 2}, {0, 3}}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestShuffleDoubleDeliveryFails: a second arrival of an output the
// reducer holds fails the run, and the backend sees the chunk once.
func TestShuffleDoubleDeliveryFails(t *testing.T) {
	w := newLedgerWorld(t, 1, 1, func(m, r int) float64 { return 100 })
	w.launch(0, 0)
	w.finish(0, 1)
	w.sh.send(append(w.s.reqs, w.sh.req(0, 0)))
	w.s.eng.Run()
	if w.s.err == nil || !strings.Contains(w.s.err.Error(), "twice") {
		t.Fatalf("run error %v, want a double delivery", w.s.err)
	}
	if len(w.delivered) != 1 {
		t.Fatalf("%d deliveries, want 1", len(w.delivered))
	}
}

// TestShuffleRefsLeaveWithTheirFlows checks the slot table: an arriving
// transfer's slot is empty by the time its chunk is delivered, every other
// slot holds a flow in flight, each held flow carries its slot as Tag, and
// a later map's transfers take the slots freed before them, so the table
// grows only to the most transfers in flight at once.
func TestShuffleRefsLeaveWithTheirFlows(t *testing.T) {
	const maps, reducers = 50, 4
	w := newLedgerWorld(t, maps, reducers, func(m, r int) float64 {
		return float64(1 + ((m*reducers+r)*37)%101) // finish order differs from start order
	})
	held := func() int {
		n := 0
		for i, tr := range w.sh.slots {
			if tr.flow == nil {
				continue
			}
			if tr.flow.Finished() || tr.flow.Tag != i {
				t.Fatalf("slot %d holds flow %d (finished %v, tag %d)", i, tr.flow.ID, tr.flow.Finished(), tr.flow.Tag)
			}
			n++
		}
		if n+len(w.sh.free) != len(w.sh.slots) {
			t.Fatalf("%d held and %d free of %d slots", n, len(w.sh.free), len(w.sh.slots))
		}
		return n
	}
	peak := 0
	w.onFlow = func() { held() } // the arriving flow has finished: its slot must be empty
	for r := range reducers {
		w.launch(r, topology.NodeID((r+1)%4))
	}
	for m := range maps {
		w.finish(m, topology.NodeID(m%4))
		peak = max(peak, held())
		w.s.eng.RunUntil(w.s.eng.Now() + 40e-6) // some of these transfers land, some stay in flight
	}
	w.run()
	if len(w.delivered) != maps*reducers || held() != 0 {
		t.Fatalf("%d of %d flows arrived, %d slots still held", len(w.delivered), maps*reducers, held())
	}
	t.Logf("%d slots for a peak of %d transfers in flight", len(w.sh.slots), peak)
	if len(w.sh.slots) != peak || peak >= maps*reducers {
		t.Fatalf("%d slots for a peak of %d transfers in flight, of %d", len(w.sh.slots), peak, maps*reducers)
	}
}
