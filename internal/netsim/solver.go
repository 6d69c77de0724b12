// The fluid solver. A solve (incRecompute) is three steps: advance every
// flow's progress to now at the rates in force, once per instant; ask the
// drain test whether the next completion is already decided; and only if
// it is not, run progressive filling and schedule the earliest completion.
// DESIGN.md §10 has the arguments at length.
//
// Progressive filling is driven by per-link active-flow indexes instead of
// sweeps over every flow and every link:
//
//   - Each finite link keeps the list of contending flows crossing it, so
//     the freeze step visits only the saturated link's flows.
//   - One running water level stands in for per-flow rate accumulation: a
//     flow's rate is the level at which its first link saturates, the same
//     float64 partial sums, in the same order, as `f.rate += inc` per
//     iteration would make.
//   - Freeze marks are solve-epoch stamps: no O(flows) reset pass.
//
// One completion event per network, not per flow. Had every flow its own
// event, a solve would schedule them one after another in n.flows order:
// one contiguous block of engine sequence numbers, sorting after everything
// scheduled before the solve and before everything scheduled later. The
// engine would dispatch the block's minimum (time, position in n.flows)
// first, and that completion solves again and cancels the rest, as does any
// start or cancel in between. So scheduleNext schedules that event alone:
// `now + remaining/rate` per flow, the earliest kept with strict < (ties go
// to the earlier flow), cancelled and scheduled afresh by every solve so it
// sits where the block would. The flow's index (Net.nextIdx) spares
// removeFlow a search.
//
// The advance. addFlow stamps updateTime at admission and Net.instant is
// the clock at the last advance pass, so while the clock stays there every
// flow is already advanced to it (the pass would subtract rate*0) and the
// pass is skipped: a shuffle's equal flows finish together, one solve each,
// so most solves repeat the `now` before them.
//
// The drain test. Such a solve's rates govern zero seconds; drain finds
// the event without them. A flow crossing a finite link is solved a rate
// between lo, the smallest capacity/len(active) of an active link (the
// filling's first increment; adding positive increments never lowers a
// float64 sum), and hi, twice the largest active capacity (a water level
// passes a capacity by rounding only). Division and addition are monotone,
// so `now + remaining/lo == now` proves the flow due now and `now +
// remaining/hi > now` proves it due later; a flow with no path, nothing
// left or no finite link is due now. If the first flow not proved later is
// proved due now, it is scheduleNext's pick, and drain makes scheduleNext's
// engine calls for it and skips the filling; any other verdict falls
// through. The stale rates are never read: the pending event is at `now`
// and every start, cancel and completion solves again, so the clock cannot
// move before a solve has filled (recompute checks, via Net.drained). With
// Hooks.RateChange installed, which reads rates, every solve fills.
//
// The walk resumes at the instant's cursor (Net.drainFrom): inside an
// instant no remaining changes and a proof under one hi holds under any
// smaller one, so the flows in front of it stay proved later until the
// clock moves or hi grows, which reset it to 0; removeFlow steps it back
// past a removed flow, admissions land behind it. Since lo <= hi no flow
// proved later is due now, so a walk from the first flow would stop where
// the cursor does: same verdicts, same Stats. (That is what the reset on a
// larger hi keeps; a flow's rate is bounded by its own links, so an old
// proof stays sound.) A repeated `now` costs O(active links) + flows unwalked.
//
// Flows outside any solve keep an event of their own: ExclusiveHold flows,
// never solved, and fluid flows admitted without a solve (node-local or
// zero-byte) until the next solve absorbs them into the network's event.
// Net.owned counts them: a solve walks n.flows to cancel them only when
// there are any.
//
// The judge is the property oracle in oracle_test.go, run after every
// filling solve of the equivalence scenarios and FuzzNetsimEquivalence:
// per-link conservation, max-min optimality by the bottleneck
// characterisation, the pending event at the earliest completion (ties to
// the earlier flow), and every flow's bytes accounted once. The same tests
// hold the schedules and the engine's dispatch order to a per-flow-event
// solver kept beside the oracle; TestBorderlineRemainingFallsThrough and
// TestDrainCursorResetsWhenHiGrows pin verdicts drain must not give.

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
		f.linkPos = make([]int32, len(f.path))
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
		if len(l.active) > math.MaxInt32 {
			panic("netsim: too many flows on one link for an int32 position")
		}
		f.linkPos[i] = int32(len(l.active))
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

// incRecompute is the fluid solver; see the header comment above for the
// three steps and the bitwise-neutrality arguments.
func (n *Net) incRecompute() {
	now := n.eng.Now()
	//lint:ignore floateq instant is a copy of the engine's clock: any other value means time moved
	if n.instant != now {
		// Every flow in one step: advancing only touched flows, in several
		// steps, would round differently from the pinned schedules.
		for _, f := range n.flows {
			if f.rate > 0 && !math.IsInf(f.rate, 1) {
				f.remaining -= f.rate * (now - f.updateTime)
				if f.remaining < 0 {
					f.remaining = 0
				}
			}
			f.updateTime = now
		}
		n.instant, n.drainFrom = now, 0
	}
	links := n.pruneActiveLinks()
	if n.hooks.RateChange == nil && n.drain(now, links) {
		return
	}
	// Progressive filling over the link indexes. The filling loop works on
	// a compacting copy of the active set: a link whose flows all froze
	// can never bound a later water-level increment or freeze
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

// drain is the drain test of the header comment, resumed at the cursor: it
// reports whether the next completion is decided whatever the filling would
// compute, and if so has scheduled it as scheduleNext would.
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
	if hi > n.drainHi {
		n.drainFrom = 0 // a flow proved under a smaller hi may be undecided under this one
	}
	n.drainHi = hi
	for ; n.drainFrom < len(n.flows); n.drainFrom++ {
		f := n.flows[n.drainFrom]
		//lint:ignore floateq the engine orders events by exact time: only a bitwise-equal sum is the same instant
		if !f.limited || f.remaining <= 0 || now+f.remaining/lo == now {
			break // due now
		}
		if !(now+f.remaining/hi > now) {
			return false // neither proved: only the filling can tell
		}
	}
	i := n.drainFrom
	if i == len(n.flows) {
		return false
	}
	n.cancelNext()
	n.cancelOwned()
	n.nextFlow, n.nextIdx = n.flows[i], i
	n.nextEv = n.eng.ScheduleAt(now, n.fireNext)
	n.drained = true
	n.stats.Deferred++
	return true
}

// scheduleNext replaces the network's completion event with one for the
// flow that finishes first at the rates just solved; see the header
// comment for why no other flow needs an event. Flows that still own an
// event (admitted without a solve) give it up.
func (n *Net) scheduleNext(now sim.Time) {
	n.cancelNext()
	n.cancelOwned()
	next := -1
	var at sim.Time
	for i, f := range n.flows {
		dt, ok := f.timeToFinish()
		if !ok {
			continue
		}
		if t := now + dt; next < 0 || t < at {
			next, at = i, t
		}
	}
	if next >= 0 {
		n.nextFlow, n.nextIdx = n.flows[next], next
		n.nextEv = n.eng.ScheduleAt(at, n.fireNext)
	}
}

// cancelOwned withdraws the events flows still own (admitted without a
// solve), in n.flows order.
func (n *Net) cancelOwned() {
	if n.owned == 0 {
		return
	}
	for _, f := range n.flows {
		if f.ev != nil {
			n.eng.Cancel(f.ev)
			f.ev = nil
		}
	}
	n.owned = 0
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
