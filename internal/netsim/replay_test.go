package netsim

// Tests of the filling's record and replay (solver.go): one per way the
// replay of the last filling stops, each holding every rate bit for bit to
// refRecompute and counting the iterations taken from the record.

import (
	"math"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// replayPair admits the same flows, and cancels the same ones, at one
// instant on two networks: one whose every solve fills (so every solve
// replays the filling before it) and one solved by refRecompute.
type replayPair struct {
	t        *testing.T
	inc, ref *Net
	incFlows []*Flow
	refFlows []*Flow
}

// newReplayPair builds the pair on two racks of four nodes whose NICs
// (25 MB/s) are the only links intra-rack flows cross.
func newReplayPair(t *testing.T) *replayPair {
	t.Helper()
	c := topology.MustNew(topology.Config{Nodes: 8, Racks: 2, RackSizes: []int{4, 4}, MapSlotsPerNode: 1})
	if c.RackOf(3) != 0 || c.RackOf(4) != 1 {
		t.Fatal("nodes 0-3 and 4-7 are not the two racks")
	}
	cfg := Config{NodeBps: 200 * Mbps, RackBps: 100 * Mbps}
	p := &replayPair{t: t, inc: mustNet(t, sim.New(), c, cfg), ref: mustNet(t, sim.New(), c, cfg)}
	p.inc.solve = func() { p.inc.fill(p.inc.advance()) }
	p.ref.solve = p.ref.refRecompute
	return p
}

// start admits one batch of src→dst flows of 1 GB on both networks.
func (p *replayPair) start(pairs ...[2]topology.NodeID) {
	reqs := make([]FlowReq, len(pairs))
	for i, sd := range pairs {
		reqs[i] = FlowReq{Src: sd[0], Dst: sd[1], Bytes: 1e9}
	}
	p.incFlows = append(p.incFlows, p.inc.StartFlows(reqs)...)
	p.refFlows = append(p.refFlows, p.ref.StartFlows(reqs)...)
	p.check()
}

// cancel cancels the i-th flow started on both networks.
func (p *replayPair) cancel(i int) {
	p.inc.Cancel(p.incFlows[i])
	p.ref.Cancel(p.refFlows[i])
	p.check()
}

// check holds every live flow's rate to the reference's, bit for bit.
func (p *replayPair) check() {
	p.t.Helper()
	for i, f := range p.incFlows {
		if f.Finished() {
			continue
		}
		if got, want := f.rate, p.refFlows[i].rate; math.Float64bits(got) != math.Float64bits(want) {
			p.t.Fatalf("flow %d: rate %v, reference %v", i, got, want)
		}
	}
}

// last runs op and returns the iterations its filling replayed and
// computed.
func (p *replayPair) last(op func()) (replayed, computed uint64) {
	before := p.inc.Stats()
	op()
	after := p.inc.Stats()
	if after.Solves != before.Solves+1 || after.Deferred != before.Deferred {
		p.t.Fatalf("op made %d solves, want one filling", after.Solves-before.Solves)
	}
	return after.Replayed - before.Replayed, after.Iterations - before.Iterations
}

func (p *replayPair) want(what string, replayed, computed, wantReplayed, wantComputed uint64) {
	p.t.Helper()
	if replayed != wantReplayed || computed != wantComputed {
		p.t.Errorf("%s: %d iterations replayed and %d computed, want %d and %d",
			what, replayed, computed, wantReplayed, wantComputed)
	}
}

// TestReplayWithoutRecord: the first filling has no record to replay.
func TestReplayWithoutRecord(t *testing.T) {
	p := newReplayPair(t)
	r, c := p.last(func() { p.start([2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6}, [2]topology.NodeID{0, 1}) })
	p.want("first filling", r, c, 0, 2)
}

// TestReplayStopsWhereDirtyLinkUndercuts: a flow joins a link whose share
// then falls below the record's second increment, so the first iteration
// is replayed and the rest computed.
func TestReplayStopsWhereDirtyLinkUndercuts(t *testing.T) {
	p := newReplayPair(t)
	// Iteration 0: node 4's NIC, three flows at 25/3 MB/s. Iteration 1:
	// 0→1 alone on node 0's and node 1's NICs, at the 50/3 MB/s they have
	// left.
	p.start([2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6}, [2]topology.NodeID{4, 7},
		[2]topology.NodeID{0, 1})
	// With 2→1, node 1's NIC has two flows: a share above 25/3 at
	// iteration 0, and half of 50/3 at iteration 1.
	r, c := p.last(func() { p.start([2]topology.NodeID{2, 1}) })
	p.want("after 2→1 joins node 1's NIC", r, c, 1, 1)
}

// TestReplayStopsWhenDirtyMinimumIsUntied: the link that alone set the
// record's second increment loses a flow, and no link attains that
// increment any more.
func TestReplayStopsWhenDirtyMinimumIsUntied(t *testing.T) {
	p := newReplayPair(t)
	p.start([2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6}, [2]topology.NodeID{4, 7},
		[2]topology.NodeID{0, 1}, [2]topology.NodeID{0, 2})
	r, c := p.last(func() { p.cancel(4) })
	p.want("after node 0 loses a flow", r, c, 1, 1)
}

// TestReplayStopsWhereSaturationMoves: a link whose recorded flow froze
// on another link gains a flow, ties the record's increment and saturates
// where the record says it did not, so its recorded flow would freeze on
// it: the replay stops there.
func TestReplayStopsWhereSaturationMoves(t *testing.T) {
	p := newReplayPair(t)
	p.start([2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6}, [2]topology.NodeID{4, 7},
		[2]topology.NodeID{0, 1}, [2]topology.NodeID{0, 2})
	// Node 1's NIC carries 0→1, frozen at iteration 1 by node 0's NIC.
	// With 3→1 it has two flows and, after iteration 0, the residual node
	// 0's NIC has: it ties iteration 1 and saturates there.
	r, c := p.last(func() { p.start([2]topology.NodeID{3, 1}) })
	p.want("after 3→1 joins node 1's NIC", r, c, 1, 1)
}

// TestReplayRunsOutWithEveryFlowFrozen: new flows whose link ties the
// record's only increment freeze in the replay, and the record runs out
// with nothing left to compute.
func TestReplayRunsOutWithEveryFlowFrozen(t *testing.T) {
	p := newReplayPair(t)
	p.start([2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6})
	r, c := p.last(func() { p.start([2]topology.NodeID{0, 1}, [2]topology.NodeID{0, 2}) })
	p.want("after two flows tie node 4's", r, c, 1, 0)
}

// TestReplaySkipsEmptiedLinks: the links a cancelled flow leaves empty
// drop out of the replay — they shared the record's second increment with
// clean links — and the whole record is reused.
func TestReplaySkipsEmptiedLinks(t *testing.T) {
	p := newReplayPair(t)
	p.start([2]topology.NodeID{0, 1}, [2]topology.NodeID{0, 2},
		[2]topology.NodeID{4, 5}, [2]topology.NodeID{4, 6}, [2]topology.NodeID{7, 4})
	// Iteration 0: node 4's NIC, two flows at 25/2 MB/s. Iteration 1: 0→2
	// and 7→4 tie at the 25/2 their NICs have left.
	p.cancel(0)
	r, c := p.last(func() { p.cancel(1) })
	p.want("after node 0's flows all left", r, c, 2, 0)
}
