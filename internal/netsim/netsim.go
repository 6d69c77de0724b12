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
// mirror-image links to the destination. Paths are immutable after
// construction and interned per (src, dst) pair, so starting a flow on a
// previously seen pair allocates no path memory; links carry no names, so
// building a 10k-node network performs no per-link formatting.
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

// Flow is one in-flight transfer.
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
	path        []*link
	// ev is the flow's own completion event. Fluid flows normally have
	// none (the Net schedules one event for the earliest completion, see
	// solver.go); it is set for hold-mode flows and, until the next solve,
	// for flows admitted without one.
	ev *sim.Event

	ID        int
	Src, Dst  topology.NodeID
	Bytes     float64
	StartedAt sim.Time

	done     func(*Flow)
	net      *Net
	queued   bool // ExclusiveHold: waiting for links
	finished bool
	limited  bool // fluid: crosses a finite link, so a solve gives it a finite rate

	// Incremental-solver index state. Positions are int32 and the inline
	// buffer sits in the bools' padding, keeping a Flow in the 192-byte
	// size class: every shuffle transfer allocates one.
	linkPosBuf [9]int32 // inline backing for linkPos: paths up to 3 tiers fit without allocating
	linkPos    []int32  // index of this flow in path[i].active, -1 for unlimited links
}

// Remaining returns the bytes not yet transferred as of the last network
// recomputation.
func (f *Flow) Remaining() float64 { return f.remaining }

// Finished reports whether the flow has completed.
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
	finite    bool // precomputed !IsInf(capacity): only finite links constrain
	dirty     bool

	// Incremental-solver index: the contending flows crossing this link
	// (finite links only).
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
	coords [][]int
	// pathCache interns the unique link path per (src, dst) pair, keyed
	// src*numNodes+dst. Paths are immutable after build, so every flow
	// between the same pair shares one slice. pathLens[sharedTier] is the
	// precomputed template length, sizing each build exactly.
	pathCache map[int64][]*link
	pathLens  []int
	flows     []*Flow // active flows, insertion order
	waiting   []*Flow // hold mode FIFO
	nextID    int

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
	// completion as of the last solve, the flow it finishes and its index
	// in flows then, and its callback (built once).
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
		eng:       eng,
		mode:      cfg.Mode,
		nodeUp:    make([]*link, nodes),
		nodeDn:    make([]*link, nodes),
		tierUp:    make([][]*link, tiers),
		tierDn:    make([][]*link, tiers),
		coords:    make([][]int, nodes),
		pathCache: make(map[int64][]*link),
		pathLens:  make([]int, tiers+1),
		links:     make([]*link, 0, 2*nodes+2*totalGroups+1),
		instant:   -1,
	}
	n.solve = n.incRecompute
	n.fireNext = func() {
		f := n.nextFlow
		n.nextEv, n.nextFlow = nil, nil
		n.finish(f)
	}
	// One slab holds every link: 10k-node construction is two large
	// allocations (slab + pointer table), not O(links) small ones.
	slab := make([]link, 2*nodes+2*totalGroups+1)
	next := 0
	addLink := func(capacity float64) *link {
		l := &slab[next]
		next++
		*l = link{capacity: capacity, finite: !math.IsInf(capacity, 1)}
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
	// Path-template lengths per shared tier: 2 NICs + one up/down pair
	// per climbed tier + the core fabric when crossing the root.
	for shared := 0; shared <= tiers; shared++ {
		n.pathLens[shared] = 2 + 2*shared
		if shared == tiers {
			n.pathLens[shared]++
		}
	}
	return n, nil
}

// FlowReq describes one transfer in a StartFlows batch.
type FlowReq struct {
	Src, Dst topology.NodeID
	Bytes    float64
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
// StartFlows keeps no reference to reqs, and no completion callback runs
// inside it: completions come only from engine events. A caller may
// therefore reuse one reqs buffer for every batch.
func (n *Net) StartFlows(reqs []FlowReq) []*Flow {
	flows := make([]*Flow, len(reqs))
	solve := false
	for i, r := range reqs {
		f, contends := n.addFlow(r.Src, r.Dst, r.Bytes, r.Done)
		flows[i] = f
		solve = solve || contends
	}
	if solve {
		n.solveAfterAdmit()
	}
	return flows
}

// addFlow validates and admits one flow without solving. The second return
// reports whether the flow contends for bandwidth, i.e. whether the caller
// must recompute (fluid) or dispatch the queue (hold).
func (n *Net) addFlow(src, dst topology.NodeID, bytes float64, done func(*Flow)) (*Flow, bool) {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("netsim: invalid flow size %v", bytes))
	}
	f := &Flow{
		ID:         n.nextID,
		Src:        src,
		Dst:        dst,
		Bytes:      bytes,
		StartedAt:  n.eng.Now(),
		remaining:  bytes,
		updateTime: n.eng.Now(),
		done:       done,
		net:        n,
		path:       n.pathFor(src, dst),
	}
	n.nextID++
	if n.hooks.Start != nil {
		n.hooks.Start(f)
	}
	if bytes == 0 || len(f.path) == 0 {
		// Local or empty transfer: complete immediately. A zero-byte flow
		// with a nonempty path still occupies a fair share until its
		// completion event fires, so it is indexed like any other. No solve
		// runs here, so the flow gets its own event — at its own place in
		// the engine's same-instant order — until the next solve absorbs it.
		f.ev = n.eng.Schedule(0, func() { n.finish(f) })
		n.owned++
		n.flows = append(n.flows, f)
		if n.mode == FluidFairSharing && len(f.path) > 0 {
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

// pathFor returns the unique link path between src and dst: nothing for
// a node-local transfer, otherwise NICs plus one up/down link per tier
// below the lowest tier the pair shares, crossing the core fabric only
// when the root alone connects them. In the two-level projection this is
// exactly the legacy shape: NICs only within a rack, NICs + rack up/down
// + core across racks. Paths are interned per (src, dst) pair: they are
// immutable after build, so repeat pairs share one slice and allocate
// nothing.
func (n *Net) pathFor(src, dst topology.NodeID) []*link {
	if src == dst {
		return nil
	}
	key := int64(src)*int64(len(n.nodeUp)) + int64(dst)
	if p, ok := n.pathCache[key]; ok {
		return p
	}
	cs, cd := n.coords[src], n.coords[dst]
	shared := len(cs)
	for t := range cs {
		if cs[t] == cd[t] {
			shared = t
			break
		}
	}
	p := make([]*link, 0, n.pathLens[shared])
	p = append(p, n.nodeUp[src])
	for t := 0; t < shared; t++ {
		p = append(p, n.tierUp[t][cs[t]])
	}
	if shared == len(cs) {
		p = append(p, n.core)
	}
	for t := shared - 1; t >= 0; t-- {
		p = append(p, n.tierDn[t][cd[t]])
	}
	p = append(p, n.nodeDn[dst])
	n.pathCache[key] = p
	return p
}

// Cancel aborts an in-flight or queued flow without firing its callback
// or counting its bytes; bandwidth is redistributed immediately.
// Cancelling a finished flow is a no-op.
func (n *Net) Cancel(f *Flow) {
	if f == nil || f.finished || f.net != n {
		return
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
		return
	}
	n.removeFlow(f)
	switch n.mode {
	case FluidFairSharing:
		n.recompute()
	case ExclusiveHold:
		for _, l := range f.path {
			if l.holder == f {
				l.holder = nil
			}
		}
		n.dispatchHold()
	}
	if n.hooks.Cancel != nil {
		n.hooks.Cancel(f)
	}
}

// finish completes a flow: removes it, redistributes bandwidth, and fires
// the callback. A flow has at most one completion event pending (a solve
// withdraws the events flows own before scheduling its own), so this runs
// once per flow.
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
		for _, l := range f.path {
			if l.holder == f {
				l.holder = nil
			}
		}
		n.dispatchHold()
	}
	if f.done != nil {
		f.done(f)
	}
}

// removeFlow drops f from the active flows, keeping their order. The flow
// the network's event finishes is found at nextIdx; others are searched for.
func (n *Net) removeFlow(f *Flow) {
	if n.mode == FluidFairSharing && len(f.path) > 0 {
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

// dispatchHold starts waiting flows (in FIFO order) whose links are all
// free, holding those links until completion. The queue is filtered in
// place.
func (n *Net) dispatchHold() {
	remaining := n.waiting[:0]
	for _, f := range n.waiting {
		// Unlimited links never serialize: only finite links are held.
		free := true
		for _, l := range f.path {
			if !math.IsInf(l.capacity, 1) && l.holder != nil {
				free = false
				break
			}
		}
		if !free {
			remaining = append(remaining, f)
			continue
		}
		for _, l := range f.path {
			if !math.IsInf(l.capacity, 1) {
				l.holder = f
			}
		}
		f.queued = false
		rate := math.Inf(1)
		for _, l := range f.path {
			if l.capacity < rate {
				rate = l.capacity
			}
		}
		f.rate = rate
		var dt float64
		if !math.IsInf(rate, 1) {
			dt = f.remaining / rate
		}
		n.flows = append(n.flows, f)
		f := f
		f.ev = n.eng.Schedule(dt, func() { n.finish(f) })
		n.owned++
	}
	clear(n.waiting[len(remaining):])
	n.waiting = remaining
}
