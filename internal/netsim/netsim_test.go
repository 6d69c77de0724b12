package netsim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// twoRacks builds the paper's Figure 2 shape: 5 nodes, racks of 3 and 2.
func twoRacks() *topology.Cluster {
	return topology.MustNew(topology.Config{
		Nodes: 5, Racks: 2, MapSlotsPerNode: 2, RackSizes: []int{3, 2},
	})
}

// startFlow admits one flow as a batch of one.
func startFlow(n *Net, src, dst topology.NodeID, bytes float64, done func(*Flow)) *Flow {
	return n.StartFlows([]FlowReq{{Src: src, Dst: dst, Bytes: bytes, Done: done}})[0]
}

// movedBytes installs a Finish hook on n that sums the bytes of finished
// flows, and returns the running sum.
func movedBytes(n *Net) *float64 {
	var moved float64
	n.SetHooks(Hooks{Finish: func(f *Flow) { moved += f.Bytes }})
	return &moved
}

func mustNet(t *testing.T, eng *sim.Engine, c *topology.Cluster, cfg Config) *Net {
	t.Helper()
	n, err := New(eng, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	c := twoRacks()
	if _, err := New(nil, c, Config{}); err == nil {
		t.Fatal("nil engine must fail")
	}
	if _, err := New(eng, nil, Config{}); err == nil {
		t.Fatal("nil cluster must fail")
	}
	if _, err := New(eng, c, Config{Mode: Mode(9)}); err == nil {
		t.Fatal("bad mode must fail")
	}
	for _, bps := range []float64{-1, math.NaN()} {
		if _, err := New(eng, c, Config{RackBps: bps}); err == nil {
			t.Fatalf("capacity %v must fail", bps)
		}
	}
	n := mustNet(t, eng, c, Config{})
	if n.mode != FluidFairSharing {
		t.Fatal("default mode must be fluid")
	}
}

func TestModeString(t *testing.T) {
	if FluidFairSharing.String() != "fluid" || ExclusiveHold.String() != "hold" || Mode(7).String() == "" {
		t.Fatal("mode strings wrong")
	}
}

func TestSingleCrossRackFlowMatchesMotivatingExample(t *testing.T) {
	// Paper Section III: 100 Mbps switches, 128 MB block -> ~10 s.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	var doneAt sim.Time = -1
	startFlow(n, 3, 0, 128e6, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	want := 128e6 / (100 * Mbps) // 10.24 s
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("cross-rack transfer took %v, want %v", doneAt, want)
	}
}

func TestTwoFlowsShareRackDownlinkFluid(t *testing.T) {
	// Two cross-rack flows into the same rack share its downlink: both
	// complete at 2x the solo time (the "10 s becomes 20 s" effect).
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	var t1, t2 sim.Time = -1, -1
	startFlow(n, 3, 0, 128e6, func(*Flow) { t1 = eng.Now() })
	startFlow(n, 4, 1, 128e6, func(*Flow) { t2 = eng.Now() })
	eng.Run()
	want := 2 * 128e6 / (100 * Mbps)
	if math.Abs(t1-want) > 1e-6 || math.Abs(t2-want) > 1e-6 {
		t.Fatalf("shared-downlink flows finished at %v and %v, want both %v", t1, t2, want)
	}
}

func TestTwoFlowsSerializeInHoldMode(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	var t1, t2 sim.Time = -1, -1
	startFlow(n, 3, 0, 128e6, func(*Flow) { t1 = eng.Now() })
	startFlow(n, 4, 1, 128e6, func(*Flow) { t2 = eng.Now() })
	eng.Run()
	solo := 128e6 / (100 * Mbps)
	if math.Abs(t1-solo) > 1e-6 {
		t.Fatalf("first hold flow finished at %v, want %v", t1, solo)
	}
	if math.Abs(t2-2*solo) > 1e-6 {
		t.Fatalf("second hold flow finished at %v, want %v", t2, 2*solo)
	}
}

func TestDisjointRacksDoNotContend(t *testing.T) {
	// Rack0 -> rack1 and rack1 -> rack0 use different up/down links:
	// both complete in solo time in both modes.
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		eng := sim.New()
		n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: mode})
		var t1, t2 sim.Time = -1, -1
		startFlow(n, 0, 3, 128e6, func(*Flow) { t1 = eng.Now() })
		startFlow(n, 4, 1, 128e6, func(*Flow) { t2 = eng.Now() })
		eng.Run()
		solo := 128e6 / (100 * Mbps)
		if math.Abs(t1-solo) > 1e-6 || math.Abs(t2-solo) > 1e-6 {
			t.Fatalf("mode %v: disjoint flows finished at %v/%v, want %v", mode, t1, t2, solo)
		}
	}
}

func TestIntraRackUsesNICOnly(t *testing.T) {
	// Within a rack only the NICs constrain; with unlimited NICs the
	// transfer is instantaneous, with 1 Gbps NICs it takes bytes/Gbps.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	var doneAt sim.Time = -1
	startFlow(n, 0, 1, 128e6, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 0 {
		t.Fatalf("intra-rack with unlimited NICs took %v, want 0", doneAt)
	}

	eng2 := sim.New()
	n2 := mustNet(t, eng2, twoRacks(), Config{RackBps: 100 * Mbps, NodeBps: Gbps})
	doneAt = -1
	startFlow(n2, 0, 1, 128e6, func(*Flow) { doneAt = eng2.Now() })
	eng2.Run()
	want := 128e6 / Gbps
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("intra-rack with 1Gbps NICs took %v, want %v", doneAt, want)
	}
}

func TestNodeLocalFlowInstant(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: Mbps, NodeBps: Mbps})
	var doneAt sim.Time = -1
	startFlow(n, 2, 2, 1e9, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 0 {
		t.Fatalf("node-local flow took %v", doneAt)
	}
}

func TestZeroByteFlow(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: Mbps})
	fired := false
	startFlow(n, 0, 3, 0, func(*Flow) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow must still complete")
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{})
	for _, bytes := range []float64{-5, math.NaN(), math.Inf(1)} { // NaN and +Inf pass a `< 0` test
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a flow of %v bytes did not panic", bytes)
				}
			}()
			startFlow(n, 0, 1, bytes, nil)
		}()
	}
}

func TestMaxMinUnevenSharing(t *testing.T) {
	// Three flows from distinct rack-0 nodes into rack 1: they share the
	// rack-0 uplink (and rack-1 downlink) three ways.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 120 * Mbps})
	var done []sim.Time
	bytes := 15e6 // solo time = 1 s at 120 Mbps = 15 MB/s
	for i := 0; i < 3; i++ {
		dst := topology.NodeID(3 + i%2)
		startFlow(n, topology.NodeID(i), dst, bytes, func(*Flow) { done = append(done, eng.Now()) })
	}
	eng.Run()
	// All three share the uplink equally: each gets 5 MB/s -> 3 s.
	for _, d := range done {
		if math.Abs(d-3) > 1e-6 {
			t.Fatalf("three-way shared flows done at %v, want 3", done)
		}
	}
}

func TestRateReallocationAfterCompletion(t *testing.T) {
	// Flow A: 15 MB, flow B: 30 MB, same bottleneck (cap 15 MB/s).
	// Phase 1: both at 7.5 MB/s. A finishes at 2 s (15/7.5). B then speeds
	// up to 15 MB/s with 15 MB left -> finishes at 3 s.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 120 * Mbps})
	var ta, tb sim.Time
	startFlow(n, 0, 3, 15e6, func(*Flow) { ta = eng.Now() })
	startFlow(n, 1, 4, 30e6, func(*Flow) { tb = eng.Now() })
	eng.Run()
	if math.Abs(ta-2) > 1e-6 {
		t.Fatalf("flow A done at %v, want 2", ta)
	}
	if math.Abs(tb-3) > 1e-6 {
		t.Fatalf("flow B done at %v, want 3", tb)
	}
}

func TestLateArrivalSlowsExistingFlow(t *testing.T) {
	// A starts alone (15 MB/s); B arrives at t=1 when A has 15 MB left.
	// They then share at 7.5 MB/s: A finishes at 1 + 2 = 3 s.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 120 * Mbps})
	var ta, tb sim.Time
	startFlow(n, 0, 3, 30e6, func(*Flow) { ta = eng.Now() })
	eng.Schedule(1, func() {
		startFlow(n, 1, 4, 30e6, func(*Flow) { tb = eng.Now() })
	})
	eng.Run()
	if math.Abs(ta-3) > 1e-6 {
		t.Fatalf("flow A done at %v, want 3", ta)
	}
	// B: shares 7.5 until t=3 (15 MB moved), then 15 MB/s for remaining
	// 15 MB -> t=4.
	if math.Abs(tb-4) > 1e-6 {
		t.Fatalf("flow B done at %v, want 4", tb)
	}
}

func TestNICBottleneckOverRack(t *testing.T) {
	// NIC slower than rack link: single flow limited by NIC.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: Gbps, NodeBps: 100 * Mbps})
	var doneAt sim.Time
	startFlow(n, 0, 3, 12.5e6, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	want := 12.5e6 / (100 * Mbps) // 1 s
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("NIC-limited flow took %v, want %v", doneAt, want)
	}
}

func TestCoreCapacityShared(t *testing.T) {
	// Core limited to 100 Mbps; two cross-rack flows in the same direction
	// through different rack links still share the core.
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 3, MapSlotsPerNode: 1})
	eng := sim.New()
	n := mustNet(t, eng, c, Config{RackBps: Gbps, CoreBps: 100 * Mbps})
	var t1, t2 sim.Time
	startFlow(n, 0, 2, 12.5e6, func(*Flow) { t1 = eng.Now() }) // rack0 -> rack1
	startFlow(n, 4, 3, 12.5e6, func(*Flow) { t2 = eng.Now() }) // rack2 -> rack1... shares rack1 down too
	eng.Run()
	// Both share the core (and rack-1 downlink): 2 s each.
	if math.Abs(t1-2) > 1e-6 || math.Abs(t2-2) > 1e-6 {
		t.Fatalf("core-shared flows done at %v/%v, want 2", t1, t2)
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	moved := movedBytes(n)
	startFlow(n, 0, 3, 1e6, nil)
	startFlow(n, 1, 4, 2e6, nil)
	eng.Run()
	if *moved != 3e6 {
		t.Fatalf("bytes moved = %v, want 3e6", *moved)
	}
	if len(n.flows) != 0 {
		t.Fatalf("%d flows active after completion", len(n.flows))
	}
}

func TestFlowAccessors(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	f := startFlow(n, 0, 3, 1e6, nil)
	if f.Finished() || f.Remaining() != 1e6 || f.rate <= 0 {
		t.Fatalf("fresh flow state wrong: fin=%v rem=%v rate=%v", f.Finished(), f.Remaining(), f.rate)
	}
	eng.Run()
	if !f.Finished() || f.Remaining() != 0 {
		t.Fatal("completed flow state wrong")
	}
}

func TestHoldModeFIFOOrder(t *testing.T) {
	// Three flows over the same path serialize in submission order.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		startFlow(n, 0, 3, 12.5e6, func(*Flow) { order = append(order, i) })
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("hold FIFO order = %v", order)
	}
}

func TestConservationProperty(t *testing.T) {
	// Property-style check: N random flows all eventually complete and
	// total bytes moved equals the sum of flow sizes, in both modes.
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		c := topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1})
		eng := sim.New()
		n := mustNet(t, eng, c, Config{RackBps: 100 * Mbps, NodeBps: Gbps, Mode: mode})
		moved := movedBytes(n)
		var total float64
		completed := 0
		for i := 0; i < 50; i++ {
			src := topology.NodeID(i % 12)
			dst := topology.NodeID((i*7 + 3) % 12)
			bytes := float64((i%9)+1) * 1e6
			total += bytes
			at := float64(i%13) * 0.25
			eng.Schedule(at, func() {
				startFlow(n, src, dst, bytes, func(*Flow) { completed++ })
			})
		}
		eng.Run()
		if completed != 50 {
			t.Fatalf("mode %v: only %d/50 flows completed", mode, completed)
		}
		if math.Abs(*moved-total) > 1 {
			t.Fatalf("mode %v: bytes moved = %v, want %v", mode, *moved, total)
		}
	}
}

func TestThroughputNeverExceedsCapacity(t *testing.T) {
	// Invariant: M equal flows through one bottleneck complete no earlier
	// than total-bytes / capacity, in both contention modes.
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		for _, m := range []int{1, 2, 5, 9} {
			eng := sim.New()
			n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: mode})
			const bytes = 5e6
			var last sim.Time
			for i := 0; i < m; i++ {
				src := topology.NodeID(i % 3)       // rack 0
				dst := topology.NodeID(3 + (i % 2)) // rack 1
				startFlow(n, src, dst, bytes, func(*Flow) {
					if eng.Now() > last {
						last = eng.Now()
					}
				})
			}
			eng.Run()
			lower := float64(m) * bytes / (100 * Mbps)
			if last < lower-1e-6 {
				t.Fatalf("mode %v m=%d: finished at %.3f, capacity bound %.3f", mode, m, last, lower)
			}
		}
	}
}

func TestFluidWorkConservation(t *testing.T) {
	// A single bottleneck link is work-conserving under fluid sharing:
	// M equal flows finish exactly at total/capacity.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	const m, bytes = 4, 5e6
	var last sim.Time
	for i := 0; i < m; i++ {
		startFlow(n, topology.NodeID(i%3), 3, bytes, func(*Flow) { last = eng.Now() })
	}
	eng.Run()
	want := m * bytes / (100 * Mbps)
	if math.Abs(last-want) > 1e-6 {
		t.Fatalf("work conservation violated: %.4f vs %.4f", last, want)
	}
}

func TestManySmallFlowsDrain(t *testing.T) {
	// Stress: hundreds of staggered small flows all complete and the
	// network ends empty (guards against the starved-flow regression).
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps})
	completed := 0
	const total = 400
	for i := 0; i < total; i++ {
		i := i
		eng.Schedule(float64(i)*0.05, func() {
			src := topology.NodeID(i % 5)
			dst := topology.NodeID((i + 2) % 5)
			startFlow(n, src, dst, float64(1+i%7)*1e5, func(*Flow) { completed++ })
		})
	}
	eng.Run()
	if completed != total {
		t.Fatalf("only %d/%d flows completed", completed, total)
	}
	if len(n.flows) != 0 {
		t.Fatalf("%d flows still active after drain", len(n.flows))
	}
}

func TestCancelFlow(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	moved := movedBytes(n)
	fired := false
	f := startFlow(n, 0, 3, 100e6, func(*Flow) { fired = true })
	// A second flow shares the bottleneck; cancelling the first must
	// return full bandwidth to it.
	var doneAt sim.Time
	startFlow(n, 1, 4, 12.5e6, func(*Flow) { doneAt = eng.Now() })
	eng.Schedule(0.5, func() { n.Cancel(f) })
	eng.Run()
	if fired {
		t.Fatal("cancelled flow fired its callback")
	}
	if !f.finished {
		t.Fatal("cancelled flow should be marked")
	}
	// Second flow: 0.5 s at half rate (6.25 MB/s -> 3.125 MB moved), then
	// full 12.5 MB/s for the remaining 9.375 MB -> 0.5 + 0.75 = 1.25 s.
	if math.Abs(doneAt-1.25) > 1e-6 {
		t.Fatalf("survivor finished at %v, want 1.25", doneAt)
	}
	if *moved != 12.5e6 {
		t.Fatalf("cancelled bytes counted: %v", *moved)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "netsim: Cancel on flow 0,") {
			t.Fatalf("second Cancel panicked with %q, want a netsim: message naming flow 0", msg)
		}
	}()
	n.Cancel(f)
	t.Fatal("a second Cancel on a cancelled flow returned")
}

func TestCancelQueuedHoldFlow(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	var order []int
	startFlow(n, 0, 3, 12.5e6, func(*Flow) { order = append(order, 0) })
	f1 := startFlow(n, 0, 3, 12.5e6, func(*Flow) { order = append(order, 1) })
	startFlow(n, 0, 3, 12.5e6, func(*Flow) { order = append(order, 2) })
	eng.Schedule(0.1, func() { n.Cancel(f1) }) // cancel while queued
	eng.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("order = %v, want [0 2]", order)
	}
}

func TestCancelHoldingFlowReleasesLinks(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	f0 := startFlow(n, 0, 3, 125e6, nil) // would take 10 s
	var doneAt sim.Time
	startFlow(n, 0, 3, 12.5e6, func(*Flow) { doneAt = eng.Now() })
	eng.Schedule(1, func() { n.Cancel(f0) })
	eng.Run()
	// Queued flow starts at 1 s, runs 1 s.
	if math.Abs(doneAt-2) > 1e-6 {
		t.Fatalf("queued flow finished at %v, want 2", doneAt)
	}
}

func TestActiveAndWaitingFlowsSplit(t *testing.T) {
	// Hold mode: one flow holds the path, the rest queue. The two counters
	// must partition them; fluid mode never queues.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	startFlow(n, 0, 3, 12.5e6, nil)
	startFlow(n, 0, 3, 12.5e6, nil)
	startFlow(n, 0, 3, 12.5e6, nil)
	if len(n.flows) != 1 || len(n.waiting) != 2 {
		t.Fatalf("hold mode: active=%d waiting=%d, want 1/2", len(n.flows), len(n.waiting))
	}
	eng.Run()
	if len(n.flows) != 0 || len(n.waiting) != 0 {
		t.Fatalf("after drain: active=%d waiting=%d", len(n.flows), len(n.waiting))
	}

	eng2 := sim.New()
	n2 := mustNet(t, eng2, twoRacks(), Config{RackBps: 100 * Mbps})
	startFlow(n2, 0, 3, 12.5e6, nil)
	startFlow(n2, 0, 3, 12.5e6, nil)
	if len(n2.flows) != 2 || len(n2.waiting) != 0 {
		t.Fatalf("fluid mode: active=%d waiting=%d, want 2/0", len(n2.flows), len(n2.waiting))
	}
	eng2.Run()
}

func TestCancelWaitingAndHolderUnderExclusiveHold(t *testing.T) {
	// Four flows contend for the same path: f0 holds, f1..f3 queue. Cancel
	// a queued flow and then the holder mid-transfer; the queue must
	// dispatch the survivors in FIFO order at the release instant.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	moved := movedBytes(n)
	var order []int
	var times []sim.Time
	record := func(id int) func(*Flow) {
		return func(*Flow) { order = append(order, id); times = append(times, eng.Now()) }
	}
	f0 := startFlow(n, 0, 3, 125e6, record(0)) // would hold for 10 s
	startFlow(n, 0, 3, 12.5e6, record(1))
	f2 := startFlow(n, 0, 3, 12.5e6, record(2))
	startFlow(n, 0, 3, 12.5e6, record(3))
	eng.Schedule(0.5, func() { n.Cancel(f2) }) // cancel while waiting
	eng.Schedule(1.0, func() { n.Cancel(f0) }) // cancel the link holder
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("completion order = %v, want [1 3]", order)
	}
	// f1 dispatches when f0's links release at t=1 and runs 1 s; f3 follows.
	if math.Abs(times[0]-2) > 1e-6 || math.Abs(times[1]-3) > 1e-6 {
		t.Fatalf("completion times = %v, want [2 3]", times)
	}
	if *moved != 25e6 {
		t.Fatalf("bytes moved = %v, want 25e6", *moved)
	}
}

// Drained verifies the network emptied out alongside the event engine: no
// active or waiting flows remain. A leftover flow means a transfer was
// admitted but never scheduled for completion (for example a flow starved
// at rate 0 whose revival recompute never came). The tests' worlds check
// it after the engine runs dry; a run checks the same through
// runtime.Builder, which rejects a transfer left open at run-end.
func (n *Net) Drained() error {
	if len(n.flows) > 0 {
		f := n.flows[0]
		return fmt.Errorf("netsim: drained with %d unfinished flows (first: flow %d %d->%d, %.0f bytes left, rate %v)",
			len(n.flows), f.ID, f.Src, f.Dst, f.remaining, f.rate)
	}
	if len(n.waiting) > 0 {
		f := n.waiting[0]
		return fmt.Errorf("netsim: drained with %d flows still queued (first: flow %d %d->%d)",
			len(n.waiting), f.ID, f.Src, f.Dst)
	}
	return nil
}

func TestDrainedDetectsLeftoverFlows(t *testing.T) {
	// Normal drain: no error.
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	startFlow(n, 0, 3, 12.5e6, nil)
	eng.Run()
	if err := n.Drained(); err != nil {
		t.Fatalf("clean drain reported error: %v", err)
	}

	// Starved flow (white-box): with its rack uplink's capacity zeroed the
	// solve allocates the flow rate 0, so no completion is scheduled for
	// it — the shape a rate<=0 allocation bug would leave behind. It must
	// be reported once the engine runs dry instead of silently vanishing.
	eng2 := sim.New()
	n2 := mustNet(t, eng2, twoRacks(), Config{RackBps: 100 * Mbps})
	n2.tierUp[0][0].capacity = 0
	f := startFlow(n2, 0, 3, 12.5e6, nil)
	if f.rate != 0 || eng2.Pending() != 0 {
		t.Fatalf("flow not starved: rate %v, %d events pending", f.rate, eng2.Pending())
	}
	eng2.Run()
	if err := n2.Drained(); err == nil {
		t.Fatal("Drained missed an unfinished flow")
	}

	// Leftover hold-mode queue entry (white-box).
	eng3 := sim.New()
	n3 := mustNet(t, eng3, twoRacks(), Config{RackBps: 100 * Mbps, Mode: ExclusiveHold})
	n3.waiting = append(n3.waiting, &Flow{ID: 7, queued: true})
	if err := n3.Drained(); err == nil {
		t.Fatal("Drained missed a queued flow")
	}
}

// TestFlowRatesTrackSharing reads each flow's rate as flows arrive and
// leave a shared uplink: the allocation every solve leaves behind.
func TestFlowRatesTrackSharing(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	a := startFlow(n, 0, 3, 12.5e6, nil) // full rate alone
	if got := a.rate; math.Abs(got-12.5e6) > 1 {
		t.Fatalf("a alone: rate %v, want 12.5e6", got)
	}
	b := startFlow(n, 1, 4, 6.25e6, nil) // shares rack0-up: both halve
	if math.Abs(a.rate-6.25e6) > 1 || math.Abs(b.rate-6.25e6) > 1 {
		t.Fatalf("a and b sharing: rates %v, %v, want 6.25e6 each", a.rate, b.rate)
	}
	// b finishes at 1 s, and a gets the uplink back.
	eng.Schedule(1.5, func() {
		if got := a.rate; math.Abs(got-12.5e6) > 1 {
			t.Errorf("a after b finished: rate %v, want 12.5e6", got)
		}
	})
	eng.Run()
}

func TestStartFlowsBatch(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	moved := movedBytes(n)
	var doneIDs []int
	done := func(f *Flow) { doneIDs = append(doneIDs, f.ID) }
	flows := n.StartFlows([]FlowReq{
		{Src: 0, Dst: 3, Bytes: 128e6, Done: done},
		{Src: 1, Dst: 4, Bytes: 128e6, Done: done}, // shares rack0-up
		{Src: 2, Dst: 2, Bytes: 5e6, Done: done},   // node-local: instant
	})
	if len(flows) != 3 || flows[1].ID != flows[0].ID+1 || flows[2].ID != flows[0].ID+2 {
		t.Fatalf("batch IDs not sequential: %v %v %v", flows[0].ID, flows[1].ID, flows[2].ID)
	}
	end := eng.Run()
	if len(doneIDs) != 3 {
		t.Fatalf("%d completions, want 3", len(doneIDs))
	}
	// The two cross-rack flows halve the shared uplink: 2x solo time.
	want := 2 * 128e6 / (100 * Mbps)
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("batch drained at %v, want %v", end, want)
	}
	if *moved != 128e6+128e6+5e6 {
		t.Fatalf("bytes moved = %v", *moved)
	}
	if got := n.StartFlows(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d flows", len(got))
	}
}

// TestStartFlowsBufferReusable pins the contract the runtime's reused batch
// buffers rest on, in both modes: no completion callback runs inside
// StartFlows — not even a node-local or zero-byte flow's — and StartFlows
// keeps no reference to reqs, so overwriting the buffer right after it
// returns changes nothing that follows.
func TestStartFlowsBufferReusable(t *testing.T) {
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		eng := sim.New()
		n := mustNet(t, eng, twoRacks(), Config{Mode: mode, RackBps: 100 * Mbps})
		moved := movedBytes(n)
		var got []int
		reqs := make([]FlowReq, 0, 4)
		for batch := 0; batch < 3; batch++ {
			inside := true
			done := func(f *Flow) {
				if inside {
					t.Fatalf("%v: flow %d completed inside StartFlows", mode, f.ID)
				}
				got = append(got, f.ID)
			}
			reqs = append(reqs[:0],
				FlowReq{Src: 0, Dst: 3, Bytes: 64e6, Done: done},
				FlowReq{Src: 1, Dst: 4, Bytes: 32e6, Done: done},
				FlowReq{Src: 2, Dst: 2, Bytes: 5e6, Done: done}, // node-local
				FlowReq{Src: 1, Dst: 0, Bytes: 0, Done: done})   // zero-byte
			flows := n.StartFlows(reqs)
			inside = false
			for i := range reqs {
				reqs[i] = FlowReq{Src: 4, Dst: 0, Bytes: 1, Done: func(*Flow) { t.Fatalf("%v: a stale request ran", mode) }}
			}
			for i, f := range flows {
				if f.Src == 4 || f.Bytes == 1 {
					t.Fatalf("%v: flow %d took the overwritten request %d", mode, f.ID, i)
				}
			}
		}
		eng.Run()
		if len(got) != 12 || *moved != 3*(64e6+32e6+5e6) {
			t.Fatalf("%v: %d completions, %v bytes moved", mode, len(got), *moved)
		}
	}
}

// TestFlowRecordsReusedAfterRelease pins the Flow lifetime contract in
// both modes: a record is not handed out again while its Done or its
// Cancel hook runs, it is handed out again once they have returned, and
// Cancel on a flow that has finished or been cancelled panics.
func TestFlowRecordsReusedAfterRelease(t *testing.T) {
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		eng := sim.New()
		n := mustNet(t, eng, twoRacks(), Config{Mode: mode, RackBps: 100 * Mbps})
		var a, inDone, afterDone, inHook *Flow
		a = startFlow(n, 0, 3, 1e6, func(f *Flow) {
			if f != a || !f.finished {
				t.Fatalf("%v: Done got flow %d (marked %v), want flow %d", mode, f.ID, f.finished, a.ID)
			}
			inDone = startFlow(n, 1, 4, 1e6, nil)
		})
		eng.Step() // a's completion; the flow its Done started is still in flight
		if inDone == nil || inDone == a {
			t.Fatalf("%v: a flow started inside Done took the finishing flow's record", mode)
		}
		afterDone = startFlow(n, 2, 2, 0, nil) // node-local: completes on its own event
		if afterDone != a || afterDone.ID != 2 || afterDone.finished {
			t.Fatalf("%v: the flow started after Done returned is flow %d, not a's record as flow 2", mode, afterDone.ID)
		}
		eng.Run()

		n.SetHooks(Hooks{Cancel: func(f *Flow) {
			if slices.Contains(n.free, f) {
				t.Fatalf("%v: flow %d is free inside its Cancel hook", mode, f.ID)
			}
			inHook = startFlow(n, 0, 1, 1e6, nil)
		}})
		victim := startFlow(n, 0, 3, 1e6, nil)
		n.Cancel(victim)
		if inHook == victim {
			t.Fatalf("%v: a flow started inside the Cancel hook took the cancelled flow's record", mode)
		}
		n.SetHooks(Hooks{})
		if next := startFlow(n, 1, 3, 1e6, nil); next != victim {
			t.Fatalf("%v: the flow started after Cancel returned did not reuse the cancelled flow's record", mode)
		}
		eng.Run()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "netsim: Cancel on flow") {
					t.Fatalf("%v: Cancel on a released flow panicked with %q, want a netsim: message", mode, msg)
				}
			}()
			n.Cancel(victim)
			t.Fatalf("%v: Cancel on a released flow returned", mode)
		}()
	}
}

// TestReusedRecordMatchesFresh: addFlow resets a reused record field by
// field, so it must leave it equal to a fresh record in every field but
// the inline buffers, whose contents are storage, not state. The reused
// record last carried a flow that was solved, stamped and, in hold mode,
// cancelled while queued; the fresh one comes from a Net that started the
// same flows and cancelled none.
func TestReusedRecordMatchesFresh(t *testing.T) {
	req := FlowReq{Src: 4, Dst: 1, Bytes: 5e5, Tag: 7} // no link in common with 0->3
	for _, mode := range []Mode{FluidFairSharing, ExclusiveHold} {
		cfg := Config{Mode: mode, RackBps: 100 * Mbps, NodeBps: Gbps}
		reusing := mustNet(t, sim.New(), twoRacks(), cfg)
		startFlow(reusing, 0, 3, 1e6, nil)
		victim := startFlow(reusing, 0, 3, 1e6, nil)
		reusing.Cancel(victim)
		reused, _ := reusing.addFlow(req)
		if reused != victim {
			t.Fatalf("%v: the admission did not reuse the cancelled flow's record", mode)
		}
		fresh := mustNet(t, sim.New(), twoRacks(), cfg)
		startFlow(fresh, 0, 3, 1e6, nil)
		startFlow(fresh, 0, 3, 1e6, nil)
		made, _ := fresh.addFlow(req)

		linkIdx := func(n *Net, ls []*link) []int {
			var idx []int
			for _, l := range ls {
				idx = append(idx, slices.Index(n.links, l))
			}
			return idx
		}
		if a, b := linkIdx(reusing, reused.links), linkIdx(fresh, made.links); !slices.Equal(a, b) {
			t.Fatalf("%v: reused record carries links %v, fresh one %v", mode, a, b)
		}
		if !slices.Equal(reused.linkPos, made.linkPos) {
			t.Fatalf("%v: reused record's positions %v, fresh one's %v", mode, reused.linkPos, made.linkPos)
		}
		x, y := *reused, *made
		for _, f := range []*Flow{&x, &y} {
			if f.fin == nil {
				t.Fatalf("%v: flow %d has no completion callback", mode, f.ID)
			}
			f.fin, f.links, f.linkPos = nil, nil, nil
			f.linkBuf, f.linkPosBuf = [len(f.linkBuf)]*link{}, [len(f.linkPosBuf)]int32{}
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%v: reused record %+v, fresh one %+v", mode, x, y)
		}
	}
}

// TestFlowSizeClass pins the size of a Flow. The Net reuses its records,
// so they cost their size once per flow of the peak in flight, not once per
// flow. With int link positions it was 232 bytes, in the 240-byte size
// class; int32 positions packed behind the bools keep it at 192.
func TestFlowSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Flow{}); size > 192 {
		t.Fatalf("netsim.Flow is %d bytes, want at most 192", size)
	}
}

func TestReferenceSolverSelectable(t *testing.T) {
	eng := sim.New()
	n := mustNet(t, eng, twoRacks(), Config{RackBps: 100 * Mbps})
	n.solve = n.refRecompute
	var doneAt sim.Time = -1
	startFlow(n, 3, 0, 128e6, func(*Flow) { doneAt = eng.Now() })
	eng.Run()
	want := 128e6 / (100 * Mbps)
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("reference solver transfer took %v, want %v", doneAt, want)
	}
}
