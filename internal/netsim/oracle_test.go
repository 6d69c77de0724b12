package netsim

// The solver's judges, in test code only: a property oracle that checks
// what any max-min fair allocation and its completion event must satisfy,
// run after every solve that fills, and refRecompute, the original
// per-flow-event solver the equivalence tests hold the schedules to.

import (
	"fmt"
	"math"

	"degradedfirst/internal/sim"
)

// refRecompute is the original fluid solver: advance every flow to the
// current time, rerun progressive filling from scratch over every link and
// flow with per-flow rate accumulation, and cancel and reschedule one
// completion event per flow. A test installs it with n.solve = n.refRecompute.
func (n *Net) refRecompute() {
	now := n.eng.Now()
	// Advance progress at the old rates.
	for _, f := range n.flows {
		if f.rate > 0 && !math.IsInf(f.rate, 1) {
			f.remaining -= f.rate * (now - f.updateTime)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.updateTime = now
	}
	// Progressive-filling max-min.
	for _, l := range n.links {
		l.residual = l.capacity
		l.unfrozen = 0
	}
	frozen := make([]bool, len(n.flows))
	unfrozen := 0
	for i, f := range n.flows {
		f.rate = 0
		frozen[i] = f.Src == f.Dst // local flows don't contend
		if !frozen[i] {
			unfrozen++
			for _, l := range f.links {
				l.unfrozen++
			}
		}
	}
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, l := range n.links {
			if l.unfrozen == 0 || math.IsInf(l.capacity, 1) {
				continue
			}
			if share := l.residual / float64(l.unfrozen); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) {
			// Remaining flows cross only unlimited links.
			for i, f := range n.flows {
				if !frozen[i] {
					f.rate = math.Inf(1)
					frozen[i] = true
				}
			}
			break
		}
		for i, f := range n.flows {
			if !frozen[i] {
				f.rate += inc
			}
		}
		for _, l := range n.links {
			if l.unfrozen > 0 && !math.IsInf(l.capacity, 1) {
				l.residual -= inc * float64(l.unfrozen)
			}
		}
		// Freeze flows crossing a saturated link.
		for i, f := range n.flows {
			if frozen[i] {
				continue
			}
			for _, l := range f.links {
				if l.residual <= 1e-9*l.capacity {
					frozen[i] = true
					break
				}
			}
			if frozen[i] {
				unfrozen--
				for _, l := range f.links {
					l.unfrozen--
				}
			}
		}
	}
	// Reschedule completions.
	for _, f := range n.flows {
		if f.ev != nil {
			n.eng.Cancel(f.ev)
			f.ev = nil
			n.owned--
		}
		dt, ok := f.timeToFinish()
		if !ok {
			continue
		}
		f := f
		f.ev = n.eng.Schedule(dt, func() { n.finish(f) })
		n.owned++
	}
}

// withOracle wraps n's solver so that every solve that runs progressive
// filling — every refRecompute, every incRecompute the drain test did not
// answer — is followed by checkAllocation, whose verdict goes to report,
// and by checkWitnesses. Every solve, drained or not, is also followed by
// checkDrainBounds. Those two report only a failure.
func withOracle(n *Net, report func(error)) {
	solve := n.solve
	n.solve = func() {
		deferred := n.stats.Deferred
		solve()
		if err := checkDrainBounds(n); err != nil {
			report(err)
		}
		if n.stats.Deferred == deferred {
			if err := checkWitnesses(n); err != nil {
				report(err)
			}
			report(checkAllocation(n))
		}
	}
}

// checkWitnesses holds each iteration of the filling's record to its
// witness, which the next replay trusts to attain the increment while it
// is clean: in the state the witness recorded for that iteration, its share
// is the increment, bit for bit.
func checkWitnesses(n *Net) error {
	for j, r := range n.iters {
		if j >= len(r.min.hist) {
			return fmt.Errorf("iteration %d's witness recorded only %d iterations", j, len(r.min.hist))
		}
		s := r.min.hist[j]
		if share := s.residual / float64(s.unfrozen); math.Float64bits(share) != math.Float64bits(r.inc) {
			return fmt.Errorf("iteration %d's witness had share %v, the increment is %v", j, share, r.inc)
		}
	}
	return nil
}

// checkDrainBounds holds the per-class counts drain reads its bounds from
// to a scan over the active links, bit for bit: the smallest
// capacity/len(active) and the largest capacity.
func checkDrainBounds(n *Net) error {
	lo, top := math.Inf(1), 0.0
	for _, l := range n.activeLinks {
		if share := l.capacity / float64(len(l.active)); share < lo {
			lo = share
		}
		if l.capacity > top {
			top = l.capacity
		}
	}
	gotLo, gotTop := n.drainBounds()
	if math.Float64bits(gotLo) != math.Float64bits(lo) || math.Float64bits(gotTop) != math.Float64bits(top) {
		return fmt.Errorf("drain bounds from the classes are (%v, %v), a scan of the %d active links gives (%v, %v)",
			gotLo, gotTop, len(n.activeLinks), lo, top)
	}
	return nil
}

// fillTol is the filling's saturation tolerance relative to capacity, with
// room for the rounding of a sum of rates.
const fillTol = 1.001e-9

// checkAllocation holds the rates just solved to the max-min properties and
// the pending network event to them:
//
//   - conservation: the rates on a finite link sum to at most its capacity;
//   - optimality, by the bottleneck characterisation: every flow crossing a
//     finite link crosses a saturated one on which no flow has a higher
//     rate, and a flow crossing only unlimited links is unlimited;
//   - the pending completion is the earliest `now + remaining/rate`, ties
//     going to the flow earlier in n.flows;
//   - no flow has moved more bytes than it carries, or fewer than none.
func checkAllocation(n *Net) error {
	sum := make(map[*link]float64)
	top := make(map[*link]float64)
	for _, f := range n.flows {
		if !(f.remaining >= 0 && f.remaining <= f.Bytes) {
			return fmt.Errorf("flow %d has %v of its %v bytes left", f.ID, f.remaining, f.Bytes)
		}
		for _, l := range f.links {
			sum[l] += f.rate
			top[l] = math.Max(top[l], f.rate)
		}
	}
	for i, l := range n.links {
		if s, ok := sum[l]; ok && s > l.capacity*(1+fillTol) {
			return fmt.Errorf("link %d carries %v over its capacity %v", i, s, l.capacity)
		}
	}
	for _, f := range n.flows {
		if f.Src == f.Dst {
			continue
		}
		if len(f.links) == 0 {
			if !math.IsInf(f.rate, 1) {
				return fmt.Errorf("flow %d crosses no finite link but has rate %v", f.ID, f.rate)
			}
			continue
		}
		bottlenecked := false
		for _, l := range f.links {
			if l.capacity-sum[l] <= fillTol*l.capacity && top[l] <= f.rate {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d at rate %v has no saturated link on which it is the fastest", f.ID, f.rate)
		}
	}
	now := n.eng.Now()
	var want *Flow
	var wantAt sim.Time
	for _, f := range n.flows {
		dt, ok := f.timeToFinish()
		if !ok {
			continue
		}
		if t := now + dt; want == nil || t < wantAt {
			want, wantAt = f, t
		}
	}
	got, gotAt := pendingCompletion(n)
	switch {
	case got != want:
		return fmt.Errorf("pending completion is %s, want %s", flowName(got), flowName(want))
	case want != nil && gotAt != wantAt:
		return fmt.Errorf("flow %d's completion pending at %v, want %v", want.ID, gotAt, wantAt)
	case n.nextFlow != nil && n.flows[n.nextIdx] != n.nextFlow:
		return fmt.Errorf("pending flow %d is not at its recorded index %d", n.nextFlow.ID, n.nextIdx)
	}
	return nil
}

// pendingCompletion returns the flow whose completion the engine will
// dispatch first and when: the network's one event while a flow is set on
// it, or under refRecompute the earliest of the per-flow events, which it
// schedules in n.flows order.
func pendingCompletion(n *Net) (*Flow, sim.Time) {
	if n.nextFlow != nil {
		return n.nextFlow, n.nextEv.At()
	}
	var first *Flow
	var at sim.Time
	for _, f := range n.flows {
		if f.ev != nil && (first == nil || f.ev.At() < at) {
			first, at = f, f.ev.At()
		}
	}
	return first, at
}

func flowName(f *Flow) string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("flow %d", f.ID)
}

// ledger is the oracle's byte accounting, fed by the lifecycle hooks: per
// flow, bytes finished + bytes cancelled = bytes started, each flow ending
// exactly once; finished is the sum of what finished. Flows are keyed by
// ID: the Net reuses their records.
type ledger struct {
	open     map[int]bool
	finished float64
	err      error
}

// install adds the ledger's Start, Finish and Cancel hooks to h and
// installs the result on n.
func (lg *ledger) install(n *Net, h Hooks) {
	lg.open = make(map[int]bool)
	h.Start = func(f *Flow) { lg.open[f.ID] = true }
	h.Finish = func(f *Flow) {
		lg.end(f, "finished")
		lg.finished += f.Bytes
	}
	h.Cancel = func(f *Flow) { lg.end(f, "cancelled") }
	n.SetHooks(h)
}

func (lg *ledger) end(f *Flow, how string) {
	if !lg.open[f.ID] && lg.err == nil {
		lg.err = fmt.Errorf("flow %d %s without being open", f.ID, how)
	}
	delete(lg.open, f.ID)
}

// close checks the books once the engine has run dry.
func (lg *ledger) close() error {
	switch {
	case lg.err != nil:
		return lg.err
	case len(lg.open) != 0:
		return fmt.Errorf("%d flows neither finished nor cancelled", len(lg.open))
	}
	return nil
}
