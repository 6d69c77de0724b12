// Package netsim models the cluster fabric as a generic tiered link
// graph driven by the topology's path provider. The paper's network of
// Figure 1 — node NICs connected to top-of-rack switches, connected by a
// core switch — is the one-tier instance; multi-tier specs (fat trees,
// built with topology.FatTree) add aggregation tiers with their own
// up/down links and oversubscribed capacities. The
// graph plays the role of the paper's NodeTree structure ("handles all
// intra-rack and inter-rack transmission requests").
//
// Every node pair has exactly one deterministic path: up the source's
// NIC, up one link per tier below the lowest tier the pair shares,
// across the core fabric when only the root connects them, then down the
// mirror-image links to the destination. A flow carries only its path's
// finite links, the ones that can limit it, written at admission into its
// recycled record; links carry no names, so building a 10k-node network
// performs no per-link formatting.
//
// Two contention modes are provided:
//
//   - FluidFairSharing (default): active flows share every link max-min
//     fairly, recomputed whenever a flow starts or ends. This matches the
//     motivating example, where two concurrent cross-rack degraded reads
//     "double the download time from 10s to 20s" for both readers.
//   - ExclusiveHold: a flow holds every link on its path exclusively for
//     the whole transfer; contending flows queue FIFO. This matches the
//     paper's literal CSIM description ("hold the communication link for a
//     duration needed for the data transmission").
//
// A flow's record is the caller's from StartFlows until its Done returns or
// Cancel on it returns. The Net then takes it back and hands it to a later
// flow, so once a run has had its peak of flows in flight, starting one
// allocates nothing.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// Bandwidth helpers: link capacities are bytes per second; the paper quotes
// bits per second.
const (
	// Mbps is one megabit per second expressed in bytes per second.
	Mbps = 1e6 / 8.0
	// Gbps is one gigabit per second expressed in bytes per second.
	Gbps = 1e9 / 8.0
)

// Mode selects the contention model.
type Mode int

const (
	// FluidFairSharing shares links max-min fairly among active flows,
	// the zero value.
	FluidFairSharing Mode = iota
	// ExclusiveHold serializes flows that share any link (FIFO).
	ExclusiveHold
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case FluidFairSharing:
		return "fluid"
	case ExclusiveHold:
		return "hold"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config sets link capacities in bytes per second. Zero means "take the
// cluster spec's capacity for that layer" — which is unlimited for
// legacy two-level clusters, whose specs carry no speeds of their own.
type Config struct {
	Mode Mode
	// NodeBps is each node's NIC capacity, applied independently to its
	// send and receive directions. Overrides the spec's NodeBps.
	NodeBps float64
	// RackBps is each leaf (tier-0) group's uplink and downlink capacity
	// — the paper's "download bandwidth of each rack", W. Overrides the
	// spec's tier-0 capacity; higher tiers always take the spec's.
	RackBps float64
	// CoreBps is the aggregate core-fabric capacity shared by all
	// root-crossing traffic. Overrides the spec's CoreBps.
	CoreBps float64
}

// Flow is one in-flight transfer. Its record is the caller's until its Done
// returns, or until Cancel on it returns: then the Net takes it back and
// hands it out again for a later flow, so a caller that keeps a *Flow must
// drop it by then. A flow that has finished or been cancelled is marked,
// and Cancel on it panics.
type Flow struct {
	// What every solve reads or writes per active flow comes first, on one
	// 64-byte cache line: at scale a solve's cost is the memory traffic of
	// walking the active flows, not its arithmetic.
	remaining  float64
	rate       float64
	updateTime sim.Time // when `remaining` was last advanced, or the flow admitted
	// The filling that last fixed the flow's rate (its epoch) and the
	// iteration of that filling that froze it; see solver.go. Every
	// filling stamps every contending flow, so a stamp is the last
	// filling's epoch or 0 (none yet), and 32 bits cannot wrap onto one.
	frozenEpoch uint32
	frozenIter  int32
	// links are the finite links of the flow's path in path order, the only
	// ones that can limit it: in linkBuf, or on the heap the record keeps.
	links []*link
	// ev is the flow's own completion event. Fluid flows normally have
	// none (the Net schedules one event for the earliest completion, see
	// solver.go); it is set for hold-mode flows and, until the next solve,
	// for flows admitted without one. fin, its callback, is built once per
	// record.
	ev  *sim.Event
	fin func()

	ID        int
	Src, Dst  topology.NodeID
	Bytes     float64
	StartedAt sim.Time
	// Tag is the FlowReq's: what the caller needs to know which of its
	// transfers a shared Done was called for.
	Tag int

	done     func(*Flow)
	queued   bool // ExclusiveHold: waiting for links
	finished bool // finished or cancelled: the record is the Net's again

	// linkPos[i] is the flow's index in links[i].active. Three links inline,
	// positions in the bools' padding, keep a Flow in the 192-byte size
	// class and hold every flow a fabric limited at its racks alone carries.
	linkPosBuf [3]int32
	linkPos    []int32
	linkBuf    [3]*link
}

// Remaining returns the bytes not yet transferred as of the last network
// recomputation.
func (f *Flow) Remaining() float64 { return f.remaining }

// Finished reports whether the flow has finished or been cancelled. The
// mark holds until the Net hands the record to a later flow.
func (f *Flow) Finished() bool { return f.finished }

type link struct {
	// What a filling iteration reads and writes comes first, within 64
	// bytes.
	capacity float64 // bytes/sec, +Inf when unlimited
	// Fluid mode scratch state.
	residual float64
	unfrozen int
	// The filling's record of this link (solver.go): its state at the start
	// of each iteration it took part in, the iteration that saturated it
	// (-1 for none), and whether its flow set changed since.
	hist    []linkState
	satIter int32
	// While the link carries contending flows, its position in
	// Net.activeLinks.
	activePos int32
	class     int32 // index in Net.classes, -1 for an unlimited link, which no flow carries
	dirty     bool

	// Incremental-solver index: the contending flows crossing this link.
	active []*Flow

	// Hold mode state.
	holder *Flow
}

// Net is the simulated network. All methods must be called from the
// simulation goroutine (engine callbacks).
type Net struct {
	eng    *sim.Engine
	mode   Mode
	nodeUp []*link
	nodeDn []*link
	// tierUp/tierDn[t][g] are group g of tier t's links toward the tier
	// above; tier 0 is the rack/leaf tier (the legacy rackUp/rackDn).
	tierUp [][]*link
	tierDn [][]*link
	core   *link
	links  []*link
	// coords[node][tier] is the node's group index per tier, shared with
	// the cluster (immutable after construction).
	coords  [][]int
	flows   []*Flow // active flows, insertion order
	waiting []*Flow // hold mode FIFO
	nextID  int
	// free holds the records of finished and cancelled flows, for addFlow
	// to hand out again; started is the slice StartFlows returns.
	free    []*Flow
	started []*Flow

	// solve is the fluid solver recompute runs: incRecompute, set by New.
	// It is a field so the package's tests can wrap every solve with their
	// property oracle.
	solve func()
	// Solver state: the finite links that currently carry contending
	// flows, the count of contending flows, and the filling epoch that
	// marks the flows a filling has fixed without a reset pass.
	activeLinks []*link
	ncontending int
	epoch       uint32
	// classes are the finite capacities, one per distinct value, with the
	// counts drain's bounds are read from (solver.go).
	classes []capClass
	// The last filling's record (solver.go): per iteration its increment,
	// water level and the end of its links in minLinks, the links whose
	// share was the increment; and the links whose flow set changed since.
	iters    []iterRec
	minLinks []*link
	dirty    []*link
	// Scratch retained across fillings to avoid reallocation: the loop's
	// compacting copy of the active set and its saturated links, and the
	// replay's dirty links, freeze counts and ties. They point only at the
	// Net's own links, so stale entries are left in place.
	workLinks []*link
	satLinks  []*link
	replayed  []replayLink
	oldFrozen []int32
	ties      []*link
	tieEnds   []int32
	spareMin  []*link

	// Fluid-mode completion: the one engine event for the earliest
	// completion as of the last solve, the flow it finishes (nil while it
	// is not pending) and its index in flows then, and its callback. The
	// event and its callback are made once and rescheduled for good.
	nextEv   *sim.Event
	nextFlow *Flow
	nextIdx  int
	fireNext func()
	owned    int // flows in flows whose ev is set
	// The instant of the last advance pass, the drain walk's cursor and
	// the hi its proofs hold under, and whether the last solve drained
	// (leaving the last filling's rates: the clock cannot leave instant
	// until a solve fills). See solver.go.
	instant   sim.Time
	drainFrom int
	drainHi   float64
	drained   bool

	stats Stats

	hooks Hooks
}

// Stats counts the fluid solver's work since New; like sim.Stats, the
// counts of a seeded run repeat exactly.
type Stats struct {
	Solves       uint64 // bandwidth recomputations
	FlowsVisited uint64 // active flows summed over those solves
	// Deferred counts the solves answered by the drain test (solver.go):
	// Solves - Deferred ran progressive filling.
	Deferred uint64
	// The fillings' work: the iterations computed, the iterations taken
	// from the last filling's record instead, and the links the computed
	// iterations swept over.
	Iterations uint64
	Replayed   uint64
	LinkVisits uint64
}

// Stats returns the solver's work counters so far.
func (n *Net) Stats() Stats { return n.stats }

// Hooks observe the flow lifecycle, for trace instrumentation. Start fires
// when a flow is created (even if queued in hold mode), Finish once it has
// left the network and before its completion callback, Cancel after an
// abort. Nil entries are skipped.
type Hooks struct {
	Start  func(*Flow)
	Finish func(*Flow)
	Cancel func(*Flow)
}

// SetHooks installs lifecycle observers (replacing any previous set).
func (n *Net) SetHooks(h Hooks) { n.hooks = h }

// New builds the network for the given cluster shape: a link graph over
// the cluster's fabric spec (NIC pairs per node, up/down pairs per group
// per tier, one core fabric link), in deterministic construction order —
// nodes, then tiers bottom-up, then the core. For legacy two-level
// clusters the resulting link set is identical to the historical
// hardwired arrays (same links, same order, same capacities), so legacy
// schedules are bit-for-bit unchanged; see TestLegacyLinkSetUnchanged.
func New(eng *sim.Engine, c *topology.Cluster, cfg Config) (*Net, error) {
	if eng == nil || c == nil {
		return nil, fmt.Errorf("netsim: nil engine or cluster")
	}
	if cfg.Mode != FluidFairSharing && cfg.Mode != ExclusiveHold {
		return nil, fmt.Errorf("netsim: unknown mode %v", cfg.Mode)
	}
	if !(cfg.NodeBps >= 0 && cfg.RackBps >= 0 && cfg.CoreBps >= 0) {
		return nil, fmt.Errorf("netsim: negative or NaN capacity")
	}
	spec := c.Spec()
	// Per-layer capacities: the legacy Config fields override the spec's
	// node, tier-0, and core capacities; intermediate tiers always come
	// from the spec. Zero (from both) means unlimited.
	capOf := func(override, fromSpec float64) float64 {
		v := fromSpec
		if override != 0 {
			v = override
		}
		if v == 0 || math.IsInf(v, 1) {
			return math.Inf(1)
		}
		return v
	}
	nodes := c.NumNodes()
	tiers := c.NumTiers()
	totalGroups := 0
	for _, tier := range spec.Tiers {
		totalGroups += tier.Count
	}
	n := &Net{
		eng:     eng,
		mode:    cfg.Mode,
		nodeUp:  make([]*link, nodes),
		nodeDn:  make([]*link, nodes),
		tierUp:  make([][]*link, tiers),
		tierDn:  make([][]*link, tiers),
		coords:  make([][]int, nodes),
		links:   make([]*link, 0, 2*nodes+2*totalGroups+1),
		instant: -1,
	}
	n.solve = n.incRecompute
	n.fireNext = func() {
		f := n.nextFlow
		n.nextFlow = nil
		n.finish(f)
	}
	// One slab holds every link: 10k-node construction is two large
	// allocations (slab + pointer table), not O(links) small ones.
	slab := make([]link, 2*nodes+2*totalGroups+1)
	next := 0
	classOf := make(map[float64]int32)
	addLink := func(capacity float64) *link {
		l := &slab[next]
		next++
		*l = link{capacity: capacity, class: -1}
		if !math.IsInf(capacity, 1) {
			c, ok := classOf[capacity]
			if !ok {
				c = int32(len(n.classes))
				classOf[capacity] = c
				n.classes = append(n.classes, capClass{capacity: capacity, perCount: []int{0}})
			}
			l.class = c
			n.classes[c].perCount[0]++
		}
		n.links = append(n.links, l)
		return l
	}
	nodeBps := capOf(cfg.NodeBps, spec.NodeBps)
	for i := 0; i < nodes; i++ {
		n.nodeUp[i] = addLink(nodeBps)
		n.nodeDn[i] = addLink(nodeBps)
		n.coords[i] = c.NodeCoords(topology.NodeID(i))
	}
	for t, tier := range spec.Tiers {
		override := 0.0
		if t == 0 {
			override = cfg.RackBps
		}
		bps := capOf(override, tier.LinkBps)
		n.tierUp[t] = make([]*link, tier.Count)
		n.tierDn[t] = make([]*link, tier.Count)
		for g := 0; g < tier.Count; g++ {
			n.tierUp[t][g] = addLink(bps)
			n.tierDn[t][g] = addLink(bps)
		}
	}
	n.core = addLink(capOf(cfg.CoreBps, spec.CoreBps))
	return n, nil
}

// FlowReq describes one transfer in a StartFlows batch. Tag is copied to
// the flow's Tag, so one Done can serve many flows.
type FlowReq struct {
	Src, Dst topology.NodeID
	Bytes    float64
	Tag      int
	Done     func(*Flow)
}

// StartFlows begins transferring each request's Bytes from Src to Dst,
// admitting the whole batch at the current instant with a single
// bandwidth recomputation (fluid mode) or queue dispatch (hold mode).
// Done (may be nil) is invoked from the engine when its transfer
// completes; a transfer between a node and itself completes after zero
// simulated time, still via an event, preserving causal ordering. A batch
// is equivalent to one single-request batch per request in order — same
// flow IDs, rates, and completion schedule — because same-instant
// intermediate recomputations advance no progress and their rate
// assignments are overwritten by the final solve. Launching a fan-in of N
// degraded-read or shuffle flows this way costs one solve instead of N.
//
// StartFlows returns the batch's flows in request order, in a slice the
// Net reuses: it holds them only until the next StartFlows call, so a
// caller that keeps them copies them out. Each *Flow is the caller's until
// its Done returns or Cancel on it returns (see Flow).
//
// StartFlows keeps no reference to reqs, and no completion callback runs
// inside it: completions come only from engine events. A caller may
// therefore reuse one reqs buffer for every batch.
func (n *Net) StartFlows(reqs []FlowReq) []*Flow {
	n.started = n.started[:0]
	solve := false
	for _, r := range reqs {
		f, contends := n.addFlow(r)
		n.started = append(n.started, f)
		solve = solve || contends
	}
	if solve {
		n.solveAfterAdmit()
	}
	return n.started
}

// addFlow validates and admits one flow without solving. The second return
// reports whether the flow contends for bandwidth, i.e. whether the caller
// must recompute (fluid) or dispatch the queue (hold). The record comes
// from the free list; only an empty list makes a new one.
func (n *Net) addFlow(r FlowReq) (*Flow, bool) {
	if r.Bytes < 0 || math.IsNaN(r.Bytes) || math.IsInf(r.Bytes, 1) {
		panic(fmt.Sprintf("netsim: invalid flow size %v", r.Bytes))
	}
	var f *Flow
	if last := len(n.free) - 1; last >= 0 {
		f, n.free = n.free[last], n.free[:last]
	} else {
		f = new(Flow)
		f.fin = func() { n.finish(f) }
		f.links, f.linkPos = f.linkBuf[:0], f.linkPosBuf[:0]
	}
	// Field by field, so fin and the link lists' storage stay; a released
	// record has no ev or done (finish, Cancel and release drop them).
	now := n.eng.Now()
	f.remaining, f.rate, f.updateTime = r.Bytes, 0, now
	f.frozenEpoch, f.frozenIter = 0, 0
	f.ID, f.Src, f.Dst, f.Bytes, f.StartedAt, f.Tag = n.nextID, r.Src, r.Dst, r.Bytes, now, r.Tag
	f.done, f.queued, f.finished = r.Done, false, false
	f.links = n.appendLinks(f.links[:0], r.Src, r.Dst)
	n.nextID++
	if n.hooks.Start != nil {
		n.hooks.Start(f)
	}
	if r.Bytes == 0 || r.Src == r.Dst {
		// Local or empty transfer: complete immediately. A zero-byte flow
		// between two nodes still occupies a fair share until its
		// completion event fires, so it is indexed like any other. No solve
		// runs here, so the flow gets its own event — at its own place in
		// the engine's same-instant order — until the next solve absorbs it.
		f.ev = n.eng.Schedule(0, f.fin)
		n.owned++
		n.flows = append(n.flows, f)
		if n.mode == FluidFairSharing && r.Src != r.Dst {
			n.indexFlow(f)
		}
		return f, false
	}
	switch n.mode {
	case FluidFairSharing:
		n.flows = append(n.flows, f)
		n.indexFlow(f)
	case ExclusiveHold:
		f.queued = true
		n.waiting = append(n.waiting, f)
	}
	return f, true
}

func (n *Net) solveAfterAdmit() {
	switch n.mode {
	case FluidFairSharing:
		n.recompute()
	case ExclusiveHold:
		n.dispatchHold()
	}
}

// appendLinks appends to ls the finite links, in order, of the path from
// src to dst: none for a node-local transfer, else NICs plus one up/down
// link per tier below the lowest tier the pair shares, and the core fabric
// when only the root connects them (two-level: NICs within a rack, NICs +
// rack up/down + core across racks).
func (n *Net) appendLinks(ls []*link, src, dst topology.NodeID) []*link {
	if src == dst {
		return ls
	}
	cs, cd := n.coords[src], n.coords[dst]
	shared := len(cs)
	for t := range cs {
		if cs[t] == cd[t] {
			shared = t
			break
		}
	}
	ls = appendFinite(ls, n.nodeUp[src])
	for t := 0; t < shared; t++ {
		ls = appendFinite(ls, n.tierUp[t][cs[t]])
	}
	if shared == len(cs) {
		ls = appendFinite(ls, n.core)
	}
	for t := shared - 1; t >= 0; t-- {
		ls = appendFinite(ls, n.tierDn[t][cd[t]])
	}
	return appendFinite(ls, n.nodeDn[dst])
}

func appendFinite(ls []*link, l *link) []*link {
	if l.class < 0 {
		return ls
	}
	return append(ls, l)
}

// Cancel aborts an in-flight or queued flow without firing its callback
// or counting its bytes; bandwidth is redistributed immediately. Once the
// Cancel hook has run the record is the Net's again (see Flow). Cancelling
// a flow that has finished or been cancelled panics: its record may
// already carry another flow.
func (n *Net) Cancel(f *Flow) {
	if f.finished {
		panic(fmt.Sprintf("netsim: Cancel on flow %d, which has finished or been cancelled", f.ID))
	}
	f.finished = true
	if f.ev != nil {
		n.eng.Cancel(f.ev)
		f.ev = nil
		n.owned--
	}
	if f.queued {
		for i, g := range n.waiting {
			if g == f {
				n.waiting = append(n.waiting[:i], n.waiting[i+1:]...)
				break
			}
		}
		if n.hooks.Cancel != nil {
			n.hooks.Cancel(f)
		}
		n.release(f)
		return
	}
	n.removeFlow(f)
	switch n.mode {
	case FluidFairSharing:
		n.recompute()
	case ExclusiveHold:
		n.releaseHold(f)
	}
	if n.hooks.Cancel != nil {
		n.hooks.Cancel(f)
	}
	n.release(f)
}

// finish completes a flow: removes it, redistributes bandwidth, fires the
// callback, and takes the record back. A flow has at most one completion
// event pending (a solve withdraws the events flows own before scheduling
// its own), so this runs once per flow.
func (n *Net) finish(f *Flow) {
	f.finished = true
	f.remaining = 0
	if f.ev != nil {
		f.ev = nil
		n.owned--
	}
	n.removeFlow(f)
	if n.hooks.Finish != nil {
		n.hooks.Finish(f)
	}
	switch n.mode {
	case FluidFairSharing:
		n.recompute()
	case ExclusiveHold:
		n.releaseHold(f)
	}
	if f.done != nil {
		f.done(f)
	}
	n.release(f)
}

// release puts a finished or cancelled flow's record on the free list. It
// drops the callback now, so what that holds need not wait for the reuse.
func (n *Net) release(f *Flow) {
	f.done = nil
	n.free = append(n.free, f)
}

// removeFlow drops f from the active flows, keeping their order. The flow
// the network's event finishes is found at nextIdx; others are searched for.
func (n *Net) removeFlow(f *Flow) {
	if n.mode == FluidFairSharing && f.Src != f.Dst {
		n.unindexFlow(f)
	}
	i := n.nextIdx
	if i >= len(n.flows) || n.flows[i] != f {
		i = slices.Index(n.flows, f)
	}
	last := len(n.flows) - 1
	copy(n.flows[i:], n.flows[i+1:])
	n.flows[last] = nil
	n.flows = n.flows[:last]
	if i < n.drainFrom {
		n.drainFrom--
	}
}

// recompute reruns the max-min fair allocation (n.solve, see solver.go).
func (n *Net) recompute() {
	n.stats.Solves++
	n.stats.FlowsVisited += uint64(len(n.flows))
	//lint:ignore floateq instant is a copy of the engine's clock: any other value means time moved
	if n.drained && n.instant != n.eng.Now() {
		panic(fmt.Sprintf("netsim: clock moved from %v to %v over a drained solve", n.instant, n.eng.Now()))
	}
	n.drained = false
	n.solve()
}

// releaseHold frees the links f held and starts the waiting flows that can
// now run.
func (n *Net) releaseHold(f *Flow) {
	for _, l := range f.links {
		if l.holder == f {
			l.holder = nil
		}
	}
	n.dispatchHold()
}

// dispatchHold starts waiting flows (in FIFO order) whose links are all
// free, holding those links until completion. Unlimited links never
// serialize, and a flow carries only finite ones. The queue is filtered in
// place.
func (n *Net) dispatchHold() {
	remaining := n.waiting[:0]
	for _, f := range n.waiting {
		free := true
		for _, l := range f.links {
			if l.holder != nil {
				free = false
				break
			}
		}
		if !free {
			remaining = append(remaining, f)
			continue
		}
		rate := math.Inf(1)
		for _, l := range f.links {
			l.holder = f
			rate = min(rate, l.capacity)
		}
		f.queued, f.rate = false, rate
		var dt float64
		if !math.IsInf(rate, 1) {
			dt = f.remaining / rate
		}
		n.flows = append(n.flows, f)
		f.ev = n.eng.Schedule(dt, f.fin)
		n.owned++
	}
	clear(n.waiting[len(remaining):])
	n.waiting = remaining
}
