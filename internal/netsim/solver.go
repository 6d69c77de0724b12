// Incremental fluid solver. A solve (incRecompute) is three steps: advance
// every flow's progress to now at the rates in force, ask the drain test
// whether the next completion is already decided, and only if it is not,
// run progressive filling and schedule the earliest completion.
//
// Progressive filling is restructured so the per-iteration work is driven
// by per-link active-flow indexes instead of sweeps over every flow and
// every link:
//
//   - Each finite link keeps the list of contending flows crossing it, so
//     the freeze step visits only the saturated link's flows.
//   - Per-flow rate accumulation (`f.rate += inc` per iteration) is
//     replaced by one running water level: the partial sums are the same
//     float64 additions in the same order, so assigning `f.rate = level`
//     at freeze time is bitwise identical to the reference solver.
//   - Frozen flags are solve-epoch stamps, eliminating the O(flows) reset
//     pass.
//
// One completion event per network, not per flow. The reference solver
// ends every solve by cancelling each flow's completion event and
// scheduling a new one, in n.flows order. Those Schedule calls are
// consecutive, so the events take one contiguous block of engine sequence
// numbers: everything scheduled before the solve sorts before the whole
// block at an equal time, everything scheduled later sorts after it.
// Inside the block the engine dispatches the minimum (time, position in
// n.flows) first — and that dispatch is a completion, which solves again
// and cancels the rest of the block, as does any start or cancel in
// between. So only the block's minimum can ever be dispatched, and the
// incremental solver schedules that event alone (scheduleNext): one pass
// computes the same `now + remaining/rate` per flow, keeps the earliest
// with strict <, so ties go to the earlier flow in n.flows, and the event
// is cancelled and scheduled afresh by every solve — also when neither
// the flow nor its time changed — so it sits where the reference's block
// would. The order in which the engine dispatches every event, net or not,
// is the reference run's.
//
// The drain test. A solve's rates do two things only: pick that event, and
// advance progress once the clock has moved. A map's 30-60 equal shuffle
// flows finish at one instant, each completion solving again at the same
// `now`, so most solves (sim-scale 96 %, sim-paper 93 %, sim-storm 48 %)
// compute rates that govern zero seconds and are overwritten by the next.
// drain finds the event without them. A flow crossing a finite link is
// solved a rate between lo, the smallest capacity/len(active) of an active
// link (the filling's first increment; later ones are positive, and adding
// a positive float64 never lowers a sum), and hi, twice the largest active
// capacity (a water level passes a capacity by rounding only). Division
// and addition are monotone, so `now + remaining/lo == now` proves the flow
// due now at its real rate and `now + remaining/hi > now` proves it due
// later; a flow with no path, nothing left or no finite link is due now.
// If the first flow in n.flows not proved later is proved due now, it is
// scheduleNext's pick (strict <), and drain makes scheduleNext's engine
// calls for it — cancelNext, each flow's own ev cancelled, one ScheduleAt —
// and skips the filling; any other verdict falls through to it. The flows
// then carry the last filling's rates, which nothing reads: the pending
// event is at `now`, every start, cancel and completion of the instant
// solves again, and the advance pass skips flows already at `now`, so the
// clock cannot move before a solve has filled (recompute checks, via
// Net.drainedAt). Hooks.RateChange does read rates, so with it installed
// drain is not consulted and every solve fills: every trace is the same
// with or without the shortcut.
//
// Two kinds of flow still own an event, because the reference gives them a
// sequence number outside any block: ExclusiveHold flows, which are never
// re-solved, and fluid flows admitted without a solve (node-local or
// zero-byte), from admission until the next solve absorbs them into the
// network's event, exactly where the reference moves them into its block.
//
// Equivalence with refRecompute, dispatch order included, is pinned by
// TestDispatchOrderMatchesReference, TestIncrementalMatchesReference and
// FuzzNetsimEquivalence, which also hold a run whose every solve fills to
// the run that drains; TestBorderlineRemainingFallsThrough pins the
// verdicts drain must not give.

package netsim

import (
	"math"

	"degradedfirst/internal/sim"
)

// indexFlow registers a contending fluid flow in the active list of each
// finite link it crosses, recording its position for O(1) removal.
// Unlimited links never constrain the solve and are not indexed.
func (n *Net) indexFlow(f *Flow) {
	if len(f.path) <= len(f.linkPosBuf) {
		f.linkPos = f.linkPosBuf[:len(f.path)]
	} else {
		f.linkPos = make([]int, len(f.path))
	}
	for i, l := range f.path {
		if !l.finite {
			f.linkPos[i] = -1
			continue
		}
		f.limited = true
		if len(l.active) == 0 && !l.inActive {
			l.inActive = true
			n.activeLinks = append(n.activeLinks, l)
		}
		f.linkPos[i] = len(l.active)
		l.active = append(l.active, f)
	}
	n.ncontending++
}

// unindexFlow removes f from its links' active lists by swapping with the
// last entry; the moved flow's recorded position is patched (paths are a
// handful of links — 2 per tier plus NICs and core — all distinct).
func (n *Net) unindexFlow(f *Flow) {
	for i, l := range f.path {
		pos := f.linkPos[i]
		if pos < 0 {
			continue
		}
		last := len(l.active) - 1
		moved := l.active[last]
		l.active[pos] = moved
		l.active[last] = nil
		l.active = l.active[:last]
		if moved != f {
			for j, ml := range moved.path {
				if ml == l {
					moved.linkPos[j] = pos
					break
				}
			}
		}
	}
	f.linkPos = nil
	n.ncontending--
}

// pruneActiveLinks drops links whose active lists have emptied and returns
// the live set. Order is first-activation order, which only affects the
// order saturated links are visited — freezing is commutative, so the
// solve result is unchanged.
func (n *Net) pruneActiveLinks() []*link {
	kept := n.activeLinks[:0]
	for _, l := range n.activeLinks {
		if len(l.active) == 0 {
			l.inActive = false
			continue
		}
		kept = append(kept, l)
	}
	for i := len(kept); i < len(n.activeLinks); i++ {
		n.activeLinks[i] = nil
	}
	n.activeLinks = kept
	return kept
}

// incRecompute is the incremental fluid solver; see the header comment
// above for the three steps and the bitwise-equivalence arguments.
func (n *Net) incRecompute() {
	now := n.eng.Now()
	// Advance progress at the old rates. This full pass is kept: advancing
	// a flow in one step versus several intermediate steps rounds
	// differently, so lazily advancing only touched flows would drift off
	// the reference schedule.
	for _, f := range n.flows {
		//lint:ignore floateq exact match is required: only a bitwise-equal timestamp guarantees rate*(now-updateTime) is exactly rate*0
		if f.updateTime == now {
			// Same-instant recompute: the advance would subtract rate*0,
			// which leaves `remaining` bitwise unchanged, so skip the
			// arithmetic. 96 % of sim-scale's solves, 93 % of sim-paper's
			// and 48 % of sim-storm's run at the `now` of the solve before
			// them (a shuffle's equal flows completing one by one).
			continue
		}
		if f.rate > 0 && !math.IsInf(f.rate, 1) {
			f.remaining -= f.rate * (now - f.updateTime)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.updateTime = now
	}
	links := n.pruneActiveLinks()
	if n.hooks.RateChange == nil && n.drain(now, links) {
		return
	}
	// Progressive filling over the link indexes. The filling loop works on
	// a compacting copy of the active set: a link whose flows have all
	// frozen can never bound a later water-level increment or freeze
	// anything again, so it is dropped instead of re-skipped every
	// iteration — at 10k-node scale most links freeze their flows in the
	// first iteration and the sweeps shrink accordingly. Dropping is
	// bitwise-neutral: min() over shares is order-independent, residual
	// updates touch only links with unfrozen flows, and freezing is
	// commutative.
	n.epoch++
	epoch := n.epoch
	work := n.workLinks[:0]
	for _, l := range links {
		l.residual = l.capacity
		l.unfrozen = len(l.active)
		work = append(work, l)
	}
	n.workLinks = work
	unfrozen := n.ncontending
	level := 0.0
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, l := range work {
			if l.unfrozen == 0 {
				continue
			}
			if share := l.residual / float64(l.unfrozen); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) {
			// Remaining flows cross only unlimited links.
			for _, f := range n.flows {
				if len(f.path) > 0 && f.frozenEpoch != epoch {
					f.rate = math.Inf(1)
					f.frozenEpoch = epoch
				}
			}
			break
		}
		level += inc
		for _, l := range work {
			if l.unfrozen > 0 {
				l.residual -= inc * float64(l.unfrozen)
			}
		}
		// Freeze the flows crossing saturated links, compacting the
		// working set as links run out of unfrozen flows. A kept link
		// whose count a later freeze zeroes lingers one iteration and is
		// dropped on the next sweep.
		kept := work[:0]
		for _, l := range work {
			if l.unfrozen > 0 && l.residual <= 1e-9*l.capacity {
				for _, g := range l.active {
					if g.frozenEpoch == epoch {
						continue
					}
					g.frozenEpoch = epoch
					g.rate = level
					unfrozen--
					for _, gl := range g.path {
						if gl.finite {
							gl.unfrozen--
						}
					}
				}
			}
			if l.unfrozen > 0 {
				kept = append(kept, l)
			}
		}
		for i := len(kept); i < len(work); i++ {
			work[i] = nil
		}
		work = kept
	}
	n.scheduleNext(now)
	n.emitRateChanges()
}

// drain is the drain test of the header comment: it reports whether the
// next completion is decided whatever the filling would compute, and if so
// has scheduled it as scheduleNext would, leaving the flows' rates stale.
func (n *Net) drain(now sim.Time, links []*link) bool {
	lo, hi := math.Inf(1), 0.0
	for _, l := range links {
		if share := l.capacity / float64(len(l.active)); share < lo {
			lo = share
		}
		if l.capacity > hi {
			hi = l.capacity
		}
	}
	hi *= 2
	var next *Flow
	for _, f := range n.flows {
		//lint:ignore floateq the engine orders events by exact time: only a bitwise-equal sum is the same instant
		if !f.limited || f.remaining <= 0 || now+f.remaining/lo == now {
			next = f
			break
		}
		if !(now+f.remaining/hi > now) {
			return false
		}
	}
	if next == nil {
		return false
	}
	n.cancelNext()
	for _, f := range n.flows {
		if f.ev != nil {
			n.eng.Cancel(f.ev)
			f.ev = nil
		}
	}
	n.nextFlow = next
	n.nextEv = n.eng.ScheduleAt(now, n.fireNext)
	n.drainedAt = now
	n.stats.Deferred++
	return true
}

// scheduleNext replaces the network's completion event with one for the
// flow that finishes first at the rates just solved; see the header
// comment for why no other flow needs an event. Flows that still own an
// event (admitted without a solve, or solved by refRecompute) give it up.
func (n *Net) scheduleNext(now sim.Time) {
	n.cancelNext()
	var next *Flow
	var at sim.Time
	for _, f := range n.flows {
		if f.ev != nil {
			n.eng.Cancel(f.ev)
			f.ev = nil
		}
		dt, ok := f.timeToFinish()
		if !ok {
			continue
		}
		if t := now + dt; next == nil || t < at {
			next, at = f, t
		}
	}
	if next != nil {
		n.nextFlow = next
		n.nextEv = n.eng.ScheduleAt(at, n.fireNext)
	}
}

// timeToFinish returns how long f needs at its current rate, as of its
// last advance; false for a starved flow, which gets no completion until
// a later solve revives it.
func (f *Flow) timeToFinish() (float64, bool) {
	switch {
	case len(f.path) == 0: // node-local transfers complete immediately
		return 0, true
	case f.remaining <= 0 || math.IsInf(f.rate, 1):
		return 0, true
	case f.rate <= 0:
		return 0, false
	}
	return f.remaining / f.rate, true
}

// cancelNext withdraws the network's completion event, if one is pending.
func (n *Net) cancelNext() {
	if n.nextEv != nil {
		n.eng.Cancel(n.nextEv)
		n.nextEv, n.nextFlow = nil, nil
	}
}

// noteRate reports f's rate through Hooks.RateChange if it changed since
// the last report.
func (n *Net) noteRate(f *Flow) {
	if n.hooks.RateChange == nil {
		return
	}
	//lint:ignore floateq rate-change hooks fire on exact allocation changes; tolerance would suppress real reallocations
	if f.rate != f.prevRate {
		f.prevRate = f.rate
		n.hooks.RateChange(f)
	}
}

// emitRateChanges reports every changed rate after a solve, in flow
// admission order.
func (n *Net) emitRateChanges() {
	if n.hooks.RateChange == nil {
		return
	}
	for _, f := range n.flows {
		n.noteRate(f)
	}
}
