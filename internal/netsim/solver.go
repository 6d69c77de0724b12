// The fluid solver. A solve (incRecompute) is three steps: advance every
// flow's progress to now at the rates in force, once per instant; ask the
// drain test whether the next completion is already decided; and only if
// it is not, run progressive filling and schedule the earliest completion.
// DESIGN.md §10 has the arguments at length.
//
// Progressive filling is driven by per-link active-flow indexes instead of
// sweeps over every flow and every link:
//
//   - Each link keeps the list of contending flows that carry it, so
//     the freeze step visits only the saturated links' flows. A link joins
//     Net.activeLinks with its first flow and leaves it, by swap-remove,
//     with its last: the order of the set only orders which saturated
//     link freezes a flow first, and freezing is commutative.
//   - One running water level stands in for per-flow rate accumulation: a
//     flow's rate is the level at which its first link saturates, the same
//     float64 partial sums, in the same order, as `f.rate += inc` per
//     iteration would make.
//   - An iteration is two sweeps over the links that take part (those
//     with unfrozen flows): one drops the links whose flows have all
//     frozen, finds the minimum share and records each link's state; one
//     subtracts the increment and collects the saturated links, whose
//     flows the freeze loop then visits.
//   - Freeze marks are filling-epoch stamps: no O(flows) reset pass.
//
// The record. A filling depends only on the active flows' paths, not on
// time or bytes, and consecutive fillings differ by a few flows. So each
// filling records its trajectory: per iteration the increment, the water
// level and the links whose share equalled the increment (Net.iters,
// Net.minLinks); per link its (residual, unfrozen) at the start of each
// iteration it took part in and the iteration that saturated it; per flow
// the iteration that froze it. indexFlow and unindexFlow mark every link
// whose flow set they change dirty. The next filling replays the
// recorded iterations over the dirty links alone and stops at the first
// iteration i where
//
//   - a dirty link's share is below the recorded increment,
//   - no clean link of the recorded minimum is left and no dirty link ties
//     the increment,
//   - a dirty link that still holds an unfrozen flow of the record
//     saturates where the record says it did not, or does not where it did,
//   - or the record ends.
//
// It then restores the state at the start of i — clean links from their
// record, dirty ones from the replay, every flow frozen before i stamped
// with the new epoch at the rate it has, the level at its iteration — and
// fills on from there as a fresh filling would.
//
// Why the result is bit for bit a fresh filling's: a clean link's flow set
// is unchanged, so by induction over the prefix it goes through the same
// float64 operations in the same order as in the record — the same
// increments, and the same flows freezing at the same iterations, because
// every link that holds a recorded flow saturates where the record says:
// clean ones by the induction, dirty ones by the replay's check. A link
// holding only new flows may saturate anywhere: it freezes only new flows,
// all of whose links are dirty and replayed. The minimum over the links
// is then the recorded increment exactly when no dirty share is below it
// and something still attains it. A dirty link's recorded state is never
// read, since the replay recomputes it from its capacity, and neither is a
// saturation iteration left on a link the last filling did not see, since
// such a link holds no recorded flow.
//
// One completion event per network, not per flow. Had every flow its own
// event, a solve would schedule them one after another in n.flows order:
// one contiguous block of engine sequence numbers, sorting after everything
// scheduled before the solve and before everything scheduled later. The
// engine would dispatch the block's minimum (time, position in n.flows)
// first, and that completion solves again and cancels the rest, as does any
// start or cancel in between. So scheduleNext schedules that event alone:
// `now + remaining/rate` per flow, the earliest kept with strict < (ties go
// to the earlier flow). Every solve moves it with Engine.Reschedule, which
// takes a fresh sequence number as a cancel and a new schedule would, so
// it sits where the block would; the Net makes that event once. The flow's
// index (Net.nextIdx) spares removeFlow a search.
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
// passes a capacity by rounding only). Both come from the capacity classes
// (capClass), not from the links: within a class the most loaded link has
// the smallest share. Division and addition are monotone, so `now +
// remaining/lo == now` proves the flow due now and `now + remaining/hi >
// now` proves it due later; a node-local flow, one with nothing left or
// one with no finite link is due now. If the first flow not proved later is
// proved due now, it is scheduleNext's pick, and drain makes scheduleNext's
// engine calls for it and skips the filling; any other verdict falls
// through. The stale rates are never read: the pending event is at `now`
// and every start, cancel and completion solves again, so the clock cannot
// move before a solve has filled (recompute checks, via Net.drained). A
// drained solve leaves the record alone; the dirty marks accumulate until
// the next filling.
//
// The walk resumes at the instant's cursor (Net.drainFrom): inside an
// instant no remaining changes and a proof under one hi holds under any
// smaller one, so the flows in front of it stay proved later until the
// clock moves or hi grows, which reset it to 0; removeFlow steps it back
// past a removed flow, admissions land behind it. Since lo <= hi no flow
// proved later is due now, so a walk from the first flow would stop where
// the cursor does: same verdicts, same Stats. (That is what the reset on a
// larger hi keeps; a flow's rate is bounded by its own links, so an old
// proof stays sound.) A repeated `now` costs O(classes) + flows unwalked.
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
// TestDrainCursorResetsWhenHiGrows pin verdicts drain must not give, and
// replay_test.go pins each way the replay stops.

package netsim

import (
	"fmt"
	"math"
	"slices"

	"degradedfirst/internal/sim"
)

// iterRec is one iteration of the recorded filling: its increment, the
// water level after it, and where in Net.minLinks the links whose share
// was the increment end (they start at the previous iteration's end).
type iterRec struct {
	inc, level float64
	minEnd     int32
}

// linkState is a link's state at the start of a filling iteration.
type linkState struct {
	residual float64
	unfrozen int
}

// replayLink is a dirty link in the replay: the iteration that saturated
// it in the record (-1 for none), and how many of the recorded flows on it
// are still unfrozen.
type replayLink struct {
	l      *link
	recSat int32
	old    int
}

// capClass is the finite links of one capacity: perCount[k] of them carry
// k contending flows, and max is the largest k any of them carries. Both
// are kept in O(1), so drain reads its bounds per class, not per link.
type capClass struct {
	capacity float64
	max      int
	perCount []int
}

// move counts a link of the class as carrying to flows, from before (±1).
func (c *capClass) move(from, to int) {
	if to == len(c.perCount) {
		c.perCount = append(c.perCount, 0)
	}
	c.perCount[from]--
	c.perCount[to]++
	if to > c.max || from == c.max && c.perCount[from] == 0 {
		c.max = to
	}
}

// drainBounds returns the smallest capacity/len(active) and the largest
// capacity over the active links (0 if none). A class's most loaded link
// has its smallest share: correctly rounded division is monotone.
func (n *Net) drainBounds() (lo, top float64) {
	lo = math.Inf(1)
	for i := range n.classes {
		c := &n.classes[i]
		if c.max == 0 {
			continue
		}
		lo = min(lo, c.capacity/float64(c.max))
		top = max(top, c.capacity)
	}
	return lo, top
}

// indexFlow registers a contending fluid flow in the active list of each
// link it carries, recording its position for O(1) removal, and marks
// those links dirty.
func (n *Net) indexFlow(f *Flow) {
	f.linkPos = slices.Grow(f.linkPos[:0], len(f.links))[:len(f.links)]
	for i, l := range f.links {
		if len(l.active) == 0 {
			l.activePos = int32(len(n.activeLinks))
			n.activeLinks = append(n.activeLinks, l)
		}
		if len(l.active) > math.MaxInt32 {
			panic("netsim: too many flows on one link for an int32 position")
		}
		f.linkPos[i] = int32(len(l.active))
		l.active = append(l.active, f)
		n.classes[l.class].move(len(l.active)-1, len(l.active))
		n.markDirty(l)
	}
	n.ncontending++
}

// unindexFlow removes f from its links' active lists by swapping with the
// last entry; the moved flow's recorded position is patched (a flow's
// links are a handful, all distinct). A link left without flows leaves the
// active set the same way.
func (n *Net) unindexFlow(f *Flow) {
	for i, l := range f.links {
		pos := f.linkPos[i]
		last := len(l.active) - 1
		moved := l.active[last]
		l.active[pos] = moved
		l.active[last] = nil
		l.active = l.active[:last]
		moved.linkPos[slices.Index(moved.links, l)] = pos
		n.classes[l.class].move(last+1, last)
		n.markDirty(l)
		if last == 0 {
			end := len(n.activeLinks) - 1
			tail := n.activeLinks[end]
			n.activeLinks[l.activePos] = tail
			tail.activePos = l.activePos
			n.activeLinks[end] = nil
			n.activeLinks = n.activeLinks[:end]
		}
	}
	f.linkPos = f.linkPos[:0]
	n.ncontending--
}

// markDirty notes that l's flow set changed since the last filling.
func (n *Net) markDirty(l *link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// incRecompute is the fluid solver; see the header comment above for the
// three steps and the bitwise-neutrality arguments.
func (n *Net) incRecompute() {
	now, links := n.advance()
	if !n.drain(now) {
		n.fill(now, links)
	}
}

// advance brings every flow's remaining bytes to the clock, once per
// instant, and returns the clock and the links with active flows.
func (n *Net) advance() (sim.Time, []*link) {
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
	return now, n.activeLinks
}

// fill runs progressive filling over the active links from where the
// replay of the last filling's record stops, records it for the next
// filling, and schedules the completion its rates give.
func (n *Net) fill(now sim.Time, links []*link) {
	prev := n.epoch
	n.epoch = n.epoch%math.MaxUint32 + 1 // never 0, the stamp of a flow no filling has seen
	epoch := n.epoch
	start := n.replay(prev, epoch)
	work, unfrozen := n.restore(start, prev, epoch, links)
	level := 0.0
	if start > 0 {
		level = n.iters[start-1].level
	}
	for unfrozen > 0 {
		j := len(n.iters)
		if j > len(links) {
			panic(fmt.Sprintf("netsim: filling not done after %d iterations over %d links", j, len(links)))
		}
		// Sweep one: drop the links whose flows have all frozen (they can
		// bound no later increment), record the others' state and find
		// the minimum share and the links that attain it.
		inc := math.Inf(1)
		mark := len(n.minLinks)
		kept := work[:0]
		for _, l := range work {
			if l.unfrozen == 0 {
				continue
			}
			kept = append(kept, l)
			l.hist = append(l.hist, linkState{l.residual, l.unfrozen})
			share := l.residual / float64(l.unfrozen)
			switch {
			case share < inc:
				inc = share
				n.minLinks = append(n.minLinks[:mark], l)
			//lint:ignore floateq the record keeps the links whose share is the increment bit for bit
			case share == inc:
				n.minLinks = append(n.minLinks, l)
			}
		}
		work = kept
		if math.IsInf(inc, 1) {
			// Remaining flows cross only unlimited links.
			for _, f := range n.flows {
				if f.Src != f.Dst && f.frozenEpoch != epoch {
					f.rate = math.Inf(1)
					f.frozenEpoch, f.frozenIter = epoch, math.MaxInt32
				}
			}
			break
		}
		level += inc
		n.iters = append(n.iters, iterRec{inc: inc, level: level, minEnd: int32(len(n.minLinks))})
		n.stats.Iterations++
		n.stats.LinkVisits += uint64(len(work))
		// Sweep two: take the increment off every link and collect the
		// saturated ones; then freeze their flows.
		sat := n.satLinks[:0]
		for _, l := range work {
			l.residual -= inc * float64(l.unfrozen)
			if l.residual <= 1e-9*l.capacity {
				l.satIter = int32(j)
				sat = append(sat, l)
			}
		}
		n.satLinks = sat
		for _, l := range sat {
			for _, g := range l.active {
				if g.frozenEpoch == epoch {
					continue
				}
				g.frozenEpoch, g.frozenIter, g.rate = epoch, int32(j), level
				unfrozen--
				for _, gl := range g.links {
					gl.unfrozen--
				}
			}
		}
	}
	n.workLinks = work
	n.scheduleNext(now)
}

// replay runs the recorded iterations over the dirty links alone, from
// their capacities, and returns the first iteration it cannot take from
// the record (the header comment lists the four ways it stops), 0 when
// there is no record. The dirty links are left in their state at the
// start of that iteration, and the flows no record holds that it froze
// before it are stamped with epoch at its level.
func (n *Net) replay(prev, epoch uint32) int {
	rec := n.iters
	if len(rec) == 0 {
		return 0
	}
	rs := n.replayed[:0]
	for _, l := range n.dirty {
		if len(l.active) == 0 {
			continue // its flows all left: it bounds nothing now
		}
		rs = append(rs, replayLink{l: l, recSat: l.satIter})
		l.residual, l.unfrozen, l.satIter = l.capacity, len(l.active), -1
		l.hist = l.hist[:0]
	}
	n.replayed = rs
	// oldFrozen[j*width+k] will count rs[k]'s flows that the record froze
	// at iteration j: in the replayed prefix they freeze there again.
	width := len(rs)
	var oldFrozen []int32
	ties, tieEnds := n.ties[:0], n.tieEnds[:0]
	minFrom := int32(0)
	i := 0
	for ; i < len(rec); i++ {
		r := rec[i]
		attained := false
		for _, l := range n.minLinks[minFrom:r.minEnd] {
			if !l.dirty {
				attained = true
				break
			}
		}
		minFrom = r.minEnd
		mark := len(ties)
		under := false
		for k := range rs {
			l := rs[k].l
			if l.unfrozen == 0 {
				continue
			}
			l.hist = append(l.hist, linkState{l.residual, l.unfrozen})
			share := l.residual / float64(l.unfrozen)
			if share < r.inc {
				under = true
				break
			}
			//lint:ignore floateq a dirty link attains the recorded increment only bit for bit
			if share == r.inc {
				ties = append(ties, l)
			}
		}
		if under || !attained && len(ties) == mark {
			ties = ties[:mark]
			break
		}
		if i == 0 {
			// Counted once the increment is known to hold: most replays
			// that stop, stop there.
			oldFrozen = n.countOldFrozen(rs, prev, len(rec))
		}
		sat := n.satLinks[:0]
		moved := false
		for k := range rs {
			d := &rs[k]
			if d.l.unfrozen == 0 {
				continue
			}
			d.l.residual -= r.inc * float64(d.l.unfrozen)
			s := d.l.residual <= 1e-9*d.l.capacity
			if s {
				sat = append(sat, d.l)
			}
			if s != (d.recSat == int32(i)) && d.old > 0 {
				moved = true
			}
		}
		n.satLinks = sat
		if moved {
			for _, d := range rs {
				if d.l.unfrozen > 0 {
					d.l.residual = d.l.hist[i].residual
				}
			}
			ties = ties[:mark]
			break
		}
		tieEnds = append(tieEnds, int32(len(ties)))
		for _, l := range sat {
			l.satIter = int32(i)
			for _, g := range l.active {
				if g.frozenEpoch == prev || g.frozenEpoch == epoch {
					continue // recorded, or frozen already
				}
				g.frozenEpoch, g.frozenIter, g.rate = epoch, int32(i), r.level
				for _, gl := range g.links {
					gl.unfrozen--
				}
			}
		}
		for k, c := range oldFrozen[i*width : (i+1)*width] {
			rs[k].l.unfrozen -= int(c)
			rs[k].old -= int(c)
		}
	}
	n.ties, n.tieEnds = ties, tieEnds
	n.stats.Replayed += uint64(i)
	return i
}

// countOldFrozen counts, per iteration of a record of iters iterations
// and per link of rs, the link's flows the record froze then, at
// oldFrozen[iteration*len(rs)+link], and sets each link's count of
// recorded flows.
func (n *Net) countOldFrozen(rs []replayLink, prev uint32, iters int) []int32 {
	width := len(rs)
	oldFrozen := slices.Grow(n.oldFrozen[:0], iters*width)[:iters*width]
	clear(oldFrozen)
	n.oldFrozen = oldFrozen
	for k := range rs {
		old := 0
		for _, g := range rs[k].l.active {
			if g.frozenEpoch == prev {
				oldFrozen[int(g.frozenIter)*width+k]++
				old++
			}
		}
		rs[k].old = old
	}
	return oldFrozen
}

// restore sets up iteration i of the filling after the replay stopped
// there: clean links take their recorded state at i, dirty ones keep the
// replay's, every recorded flow frozen before i is stamped with epoch, and
// the record is cut to its first i iterations, their minimum links
// narrowed to the clean ones plus the replay's ties. At i == 0 it is a
// fresh start. It returns the links that take part in iteration i and the
// contending flows still unfrozen, and clears the dirty marks.
func (n *Net) restore(i int, prev, epoch uint32, links []*link) ([]*link, int) {
	work := n.workLinks[:0]
	unfrozen := n.ncontending
	if i == 0 {
		for _, l := range links {
			l.residual, l.unfrozen, l.satIter = l.capacity, len(l.active), -1
			l.hist = l.hist[:0]
			work = append(work, l)
		}
		n.iters, n.minLinks = n.iters[:0], n.minLinks[:0]
	} else {
		for _, l := range links {
			switch {
			case l.dirty:
				l.hist = l.hist[:min(len(l.hist), i)]
			case i < len(l.hist):
				s := l.hist[i]
				l.residual, l.unfrozen = s.residual, s.unfrozen
				l.hist = l.hist[:i]
			default:
				continue // done before i, its record whole
			}
			if l.unfrozen > 0 {
				l.satIter = -1
				work = append(work, l)
			}
		}
		for _, f := range n.flows {
			if f.frozenEpoch == prev && int(f.frozenIter) < i {
				f.frozenEpoch = epoch
			}
			if f.frozenEpoch == epoch {
				unfrozen--
			}
		}
		n.iters = n.iters[:i]
		kept := n.spareMin[:0]
		minFrom, tieFrom := int32(0), int32(0)
		for j := range n.iters {
			for _, l := range n.minLinks[minFrom:n.iters[j].minEnd] {
				if !l.dirty {
					kept = append(kept, l)
				}
			}
			kept = append(kept, n.ties[tieFrom:n.tieEnds[j]]...)
			minFrom, tieFrom = n.iters[j].minEnd, n.tieEnds[j]
			n.iters[j].minEnd = int32(len(kept))
		}
		n.minLinks, n.spareMin = kept, n.minLinks
	}
	for _, l := range n.dirty {
		l.dirty = false
	}
	n.dirty = n.dirty[:0]
	return work, unfrozen
}

// drain is the drain test of the header comment, resumed at the cursor: it
// reports whether the next completion is decided whatever the filling would
// compute, and if so has scheduled it as scheduleNext would.
func (n *Net) drain(now sim.Time) bool {
	lo, hi := n.drainBounds()
	hi *= 2
	if hi > n.drainHi {
		n.drainFrom = 0 // a flow proved under a smaller hi may be undecided under this one
	}
	n.drainHi = hi
	for ; n.drainFrom < len(n.flows); n.drainFrom++ {
		f := n.flows[n.drainFrom]
		//lint:ignore floateq the engine orders events by exact time: only a bitwise-equal sum is the same instant
		if len(f.links) == 0 || f.remaining <= 0 || now+f.remaining/lo == now {
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
	n.cancelOwned()
	n.nextFlow, n.nextIdx = n.flows[i], i
	n.nextEv = n.eng.Reschedule(n.nextEv, now, n.fireNext)
	n.drained = true
	n.stats.Deferred++
	return true
}

// scheduleNext moves the network's completion event to the flow that
// finishes first at the rates just solved, or withdraws it if none will;
// see the header comment for why no other flow needs an event. Flows that
// still own an event (admitted without a solve) give it up.
func (n *Net) scheduleNext(now sim.Time) {
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
	if next < 0 {
		n.cancelNext()
		return
	}
	n.nextFlow, n.nextIdx = n.flows[next], next
	n.nextEv = n.eng.Reschedule(n.nextEv, at, n.fireNext)
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
	case f.Src == f.Dst: // node-local transfers complete immediately
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
	if n.nextFlow != nil {
		n.eng.Cancel(n.nextEv)
		n.nextFlow = nil
	}
}
