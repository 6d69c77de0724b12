package runtime

import (
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
	// flows lists the transfers cancel may have to stop, in start order;
	// arrivals counts the finished ones still listed.
	flows    []*shuffleRef
	arrivals int
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

// shuffleRef is one transfer of map m's output to reducer r, and its
// arrived method the flow's completion callback.
type shuffleRef struct {
	sh   *shuffle
	r, m int
	flow *netsim.Flow
}

func newShuffle(s *state, js *jobState) *shuffle {
	sh := &shuffle{s: s, job: js, out: make([]mapOutput, len(js.spec.Tasks)), in: make([]inbox, len(js.reducers))}
	for r := range sh.in {
		sh.in[r].got = make([]bool, len(sh.out))
	}
	return sh
}

// mapFinished records map m's output on node and sends it to every
// launched reducer that lacks it (a finished reducer holds every output).
// An unlaunched reducer parks it, so a fresh one parks in completion order.
func (sh *shuffle) mapFinished(m int, node topology.NodeID, parts []Chunk) {
	sh.out[m] = mapOutput{node: node, parts: parts}
	sends := sh.s.sends
	for r, rs := range sh.job.reducers {
		switch {
		case sh.in[r].got[m]:
		case rs.launched:
			sends = append(sends, shuffleRef{sh: sh, r: r, m: m})
		default:
			sh.in[r].parked = append(sh.in[r].parked, m)
		}
	}
	sh.send(sends)
}

// launch sends a just-launched reducer its parked maps, in parking order.
func (sh *shuffle) launch(r int) {
	sends := sh.s.sends
	for _, m := range sh.in[r].parked {
		sends = append(sends, shuffleRef{sh: sh, r: r, m: m})
	}
	sh.in[r].parked = nil
	sh.send(sends)
}

// send starts the transfers built in s.sends as one batch: one bandwidth
// recomputation however wide the fan-out, and one allocation of refs,
// each its flow's only callback state.
func (sh *shuffle) send(sends []shuffleRef) {
	if len(sends) == 0 {
		return
	}
	s := sh.s
	refs := make([]shuffleRef, len(sends))
	copy(refs, sends)
	clear(sends)
	s.sends = sends[:0]
	reqs := s.reqs
	for i := range refs {
		ref, o := &refs[i], &sh.out[refs[i].m]
		reqs = append(reqs, netsim.FlowReq{Src: o.node, Dst: sh.job.reducers[ref.r].node, Bytes: o.parts[ref.r].Bytes, Done: ref.arrived})
	}
	for i, f := range s.startFlows(reqs) {
		refs[i].flow = f
		sh.flows = append(sh.flows, &refs[i])
	}
}

// arrived delivers the chunk, and fails the run if the reducer holds it
// already: every owed chunk is delivered exactly once. Finished refs leave
// the list once they outnumber in-flight ones, so it (and every finished
// netsim.Flow it holds) stays proportional to what is in flight.
func (ref *shuffleRef) arrived(*netsim.Flow) {
	sh, s := ref.sh, ref.sh.s
	sh.arrivals++
	if 2*sh.arrivals > len(sh.flows) {
		sh.flows = slices.DeleteFunc(sh.flows, func(ref *shuffleRef) bool { return ref.flow.Finished() })
		sh.arrivals = 0
	}
	in, r := &sh.in[ref.r], sh.job.reducers[ref.r]
	if in.got[ref.m] {
		s.fail(fmt.Errorf("%s: job %d reducer %d received map %d's output twice", s.name, sh.job.idx, ref.r, ref.m))
		return
	}
	c := sh.out[ref.m].parts[ref.r]
	if err := s.backend.Deliver(sh.job.idx, ref.r, r.node, c); err != nil {
		s.fail(err)
		return
	}
	in.got[ref.m] = true
	in.held++
	in.bytes += c.Bytes
	s.checkReducer(r)
}

// received reports reducer r's bytes and whether it holds every output.
func (sh *shuffle) received(r int) (bytes float64, all bool) {
	return sh.in[r].bytes, sh.in[r].held == len(sh.out)
}

// cancel stops, in start order, every transfer from or to a dead node, and
// drops finished ones from the list. What it carried stays owed: lose
// makes a dead mapper's output again, and reset re-parks a dead reducer's.
func (sh *shuffle) cancel(dead func(topology.NodeID) bool) {
	kept := sh.flows[:0]
	for _, ref := range sh.flows {
		switch f := ref.flow; {
		case f.Finished():
		case dead(f.Src) || dead(f.Dst):
			sh.s.net.Cancel(f)
		default:
			kept = append(kept, ref)
		}
	}
	clear(sh.flows[len(kept):])
	sh.flows, sh.arrivals = kept, 0
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
