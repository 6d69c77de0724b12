package runtime

import (
	"cmp"
	"fmt"
	"slices"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/topology"
)

// shuffle is one job's shuffle ledger. Each (reducer, map) pair is owed,
// parked (the output exists and the reducer has not launched), in flight
// or delivered. Only the ledger reads or writes those states: the
// lifecycle and failure recovery call its transitions, and send is its
// only flow starter. A map-only or finished job has none.
type shuffle struct {
	s   *state
	job *jobState
	// out[m] is map m's output: its node and one Chunk per reducer, nil
	// parts while it has none. parts is the backend's slice, which may be
	// shared between maps: it is only read.
	out []mapOutput
	in  []inbox // one per reducer
	// slots holds the transfers in flight, each at the index its flow
	// carries as Tag; free lists the empty ones. A slot is emptied when its
	// flow arrives or is cancelled, before netsim reuses the flow's record.
	// arrive is every transfer's completion callback.
	slots  []transfer
	free   []int
	arrive func(*netsim.Flow)
}

type mapOutput struct {
	node  topology.NodeID
	parts []Chunk
}

// inbox is one reducer's side: the maps whose output it holds, their
// count and bytes, and the maps parked for it.
type inbox struct {
	got    []bool
	held   int
	bytes  float64
	parked []int
}

// transfer is one transfer of map m's output to reducer r; flow is nil
// in an empty slot.
type transfer struct {
	r, m int
	flow *netsim.Flow
}

func newShuffle(s *state, js *jobState) *shuffle {
	sh := &shuffle{s: s, job: js, out: make([]mapOutput, len(js.spec.Tasks)), in: make([]inbox, len(js.reducers))}
	for r := range sh.in {
		sh.in[r].got = make([]bool, len(sh.out))
	}
	sh.arrive = sh.arrived
	return sh
}

// mapFinished records map m's output on node and sends it to every
// launched reducer that lacks it (a finished reducer holds every output).
// An unlaunched reducer parks it, so a fresh one parks in completion order.
func (sh *shuffle) mapFinished(m int, node topology.NodeID, parts []Chunk) {
	sh.out[m] = mapOutput{node: node, parts: parts}
	reqs := sh.s.reqs
	for r, rs := range sh.job.reducers {
		switch {
		case sh.in[r].got[m]:
		case rs.launched:
			reqs = append(reqs, sh.req(r, m))
		default:
			sh.in[r].parked = append(sh.in[r].parked, m)
		}
	}
	sh.send(reqs)
}

// launch sends a just-launched reducer its parked maps, in parking order.
func (sh *shuffle) launch(r int) {
	reqs := sh.s.reqs
	for _, m := range sh.in[r].parked {
		reqs = append(reqs, sh.req(r, m))
	}
	sh.in[r].parked = nil
	sh.send(reqs)
}

// req takes a slot for the transfer of map m's output to reducer r and
// returns its flow request, tagged with the slot.
func (sh *shuffle) req(r, m int) netsim.FlowReq {
	slot := len(sh.slots)
	if last := len(sh.free) - 1; last >= 0 {
		slot, sh.free = sh.free[last], sh.free[:last]
	} else {
		sh.slots = append(sh.slots, transfer{})
	}
	sh.slots[slot] = transfer{r: r, m: m}
	o := &sh.out[m]
	return netsim.FlowReq{Src: o.node, Dst: sh.job.reducers[r].node, Bytes: o.parts[r].Bytes, Tag: slot, Done: sh.arrive}
}

// send starts the transfers req built in s.reqs as one batch: one
// bandwidth recomputation however wide the fan-out, and no allocation
// once the slot table has grown to what is in flight.
func (sh *shuffle) send(reqs []netsim.FlowReq) {
	for _, f := range sh.s.startFlows(reqs) {
		sh.slots[f.Tag].flow = f
	}
}

// empty frees slot i.
func (sh *shuffle) empty(i int) {
	sh.slots[i] = transfer{}
	sh.free = append(sh.free, i)
}

// arrived delivers the chunk, and fails the run if the reducer holds it
// already: every owed chunk is delivered exactly once.
func (sh *shuffle) arrived(f *netsim.Flow) {
	s, t := sh.s, sh.slots[f.Tag]
	sh.empty(f.Tag)
	in, r := &sh.in[t.r], sh.job.reducers[t.r]
	if in.got[t.m] {
		s.fail(fmt.Errorf("%s: job %d reducer %d received map %d's output twice", s.name, sh.job.idx, t.r, t.m))
		return
	}
	c := sh.out[t.m].parts[t.r]
	if err := s.backend.Deliver(sh.job.idx, t.r, r.node, c); err != nil {
		s.fail(err)
		return
	}
	in.got[t.m] = true
	in.held++
	in.bytes += c.Bytes
	s.checkReducer(r)
}

// received reports reducer r's bytes and whether it holds every output.
func (sh *shuffle) received(r int) (bytes float64, all bool) {
	return sh.in[r].bytes, sh.in[r].held == len(sh.out)
}

// cancel stops, in start (flow ID) order, every transfer from or to a
// dead node. What it carried stays owed: lose makes a dead mapper's output
// again, and reset re-parks a dead reducer's.
func (sh *shuffle) cancel(dead func(topology.NodeID) bool) {
	var stop []int
	for i, t := range sh.slots {
		if f := t.flow; f != nil && (dead(f.Src) || dead(f.Dst)) {
			stop = append(stop, i)
		}
	}
	slices.SortFunc(stop, func(a, b int) int { return cmp.Compare(sh.slots[a].flow.ID, sh.slots[b].flow.ID) })
	for _, i := range stop {
		sh.s.net.Cancel(sh.slots[i].flow)
		sh.empty(i)
	}
}

// reset empties reducer r's inbox and re-parks, in map order, every output
// on a live node. One on a dead node is left to lose.
func (sh *shuffle) reset(r int) {
	in := &sh.in[r]
	clear(in.got)
	in.held, in.bytes, in.parked = 0, 0, nil
	for m, o := range sh.out {
		if o.parts != nil && sh.s.cluster.Alive(o.node) {
			in.parked = append(in.parked, m)
		}
	}
}

// lose re-owes map m's output when it is on a dead node and an unfinished
// reducer lacks it: the output and its parked entries go, and lose returns
// the node it died with for the caller to run the map again. Otherwise it
// changes nothing and returns false.
func (sh *shuffle) lose(m int, dead func(topology.NodeID) bool) (topology.NodeID, bool) {
	o := sh.out[m]
	lacks := func(r *reducerState) bool { return !r.done && !sh.in[r.idx].got[m] }
	if o.parts == nil || !dead(o.node) || !slices.ContainsFunc(sh.job.reducers, lacks) {
		return 0, false
	}
	for r := range sh.in {
		sh.in[r].parked = slices.DeleteFunc(sh.in[r].parked, func(p int) bool { return p == m })
	}
	sh.out[m] = mapOutput{}
	return o.node, true
}
