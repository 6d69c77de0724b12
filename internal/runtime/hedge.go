package runtime

import (
	"fmt"
	"math"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/trace"
)

// HedgePolicy configures redundant-request handling for degraded-read
// fan-ins, after the fork-join analyses of the MDS-queue line of work: a
// degraded task needs any k blocks of its stripe, so fetching more than k
// and keeping the first k to arrive trades extra network volume for tail
// latency. The zero value disables both mechanisms and leaves the fan-in
// path bit-identical to the unhedged runtime (pinned by the seed-golden
// tests).
type HedgePolicy struct {
	// Extra (the Δ of k+Δ) is the number of spare sources launched
	// eagerly alongside the k required ones. The read completes when any
	// k of the k+Δ flows finish; the stragglers are cancelled.
	Extra int
	// HedgeQuantile, when > 0, enables deadline hedging: each fan-in
	// flow gets a deadline at this quantile of the observed per-flow
	// latencies, and a flow that outlives its deadline triggers a standby
	// source launch. Deadlines are only armed once 8 latencies
	// (hedgeMinSamples) have been observed.
	HedgeQuantile float64
}

// hedgeMinSamples is the number of observed flow latencies deadline
// hedging needs before it arms.
const hedgeMinSamples = 8

// Active reports whether any hedging mechanism is enabled. When false the
// runtime takes the original fan-in path untouched.
func (h HedgePolicy) Active() bool { return h.Extra > 0 || h.HedgeQuantile > 0 }

// Validate rejects malformed policies.
func (h HedgePolicy) Validate() error {
	if h.Extra < 0 {
		return fmt.Errorf("hedge: Extra must be >= 0, got %d", h.Extra)
	}
	if h.HedgeQuantile < 0 || h.HedgeQuantile >= 1 || math.IsNaN(h.HedgeQuantile) {
		return fmt.Errorf("hedge: HedgeQuantile must be in [0,1), got %v", h.HedgeQuantile)
	}
	return nil
}

// spareBudget is the number of spare sources a degraded fan-in asks its
// backend for: the Extra eager ones, plus under deadline hedging one
// standby per flow that can ever be in flight (at most one hedge per
// flow fires).
func (h HedgePolicy) spareBudget() SpareBudget {
	if h.HedgeQuantile > 0 {
		return SpareBudget{Fixed: 2 * h.Extra, PerPrimary: 1}
	}
	return SpareBudget{Fixed: h.Extra}
}

// emitFlowLatency records one fan-in flow's outcome under a hedge
// policy: "won" for a flow among the first need, "lost" for a loser
// cancelled with moved bytes already transferred.
func (s *state) emitFlowLatency(rm *runningMap, f *netsim.Flow, class string, moved, lat float64) {
	e := s.ev(trace.EvFlowLatency)
	e.Job = rm.js.idx
	e.Task = rm.task.Index
	e.Node = int(rm.node)
	e.Src = int(f.Src)
	e.Class = class
	e.Bytes = moved
	e.N = f.ID
	e.Dur = lat
	s.emit(&e)
}

// hedgeDeadline returns the current per-flow deadline estimate, or false
// while hedging is off or too few latencies have been observed.
func (s *state) hedgeDeadline() (float64, bool) {
	q := s.p.Hedge.HedgeQuantile
	if q <= 0 || len(s.hedgeLat) < hedgeMinSamples {
		return 0, false
	}
	return stats.Quantile(s.hedgeLat, q), true
}

// armHedgeTimer schedules a deadline check for fan-in flow i, by its
// index in rm.flows: the flow's record is netsim's again once it ends.
// Timers are tracked on the running map so requeueRunning can cancel them.
func (s *state) armHedgeTimer(rm *runningMap, i int, deadline float64) {
	var ev *sim.Event
	ev = s.eng.Schedule(deadline, func() {
		rm.dropHedgeTimer(ev)
		s.hedgeFire(rm, i, deadline)
	})
	rm.hedgeTimers = append(rm.hedgeTimers, ev)
}

// hedgeFire launches a standby source for fan-in flow i if it outlived
// its deadline. No-ops when the flow arrived in time (its entry is
// cleared) or the standby pool is dry; a task that leaves the running set
// cancels its timers first.
func (s *state) hedgeFire(rm *runningMap, i int, deadline float64) {
	f := rm.flows[i]
	if f == nil || rm.got >= rm.need || len(rm.standby) == 0 {
		return
	}
	sp := rm.standby[0]
	rm.standby = rm.standby[1:]
	he := s.ev(trace.EvHedgeLaunch)
	he.Job = rm.js.idx
	he.Task = rm.task.Index
	he.Node = int(rm.node)
	he.Src = int(sp.Src)
	he.Bytes = sp.Bytes
	he.N = f.ID
	he.Dur = deadline
	s.emit(&he)
	tag := len(rm.flows)
	rm.flows = append(rm.flows, s.startFlows(append(s.reqs, netsim.FlowReq{Src: sp.Src, Dst: rm.node, Bytes: sp.Bytes, Tag: tag, Done: rm.arrived}))...)
	if deadline, ok := s.hedgeDeadline(); ok {
		s.armHedgeTimer(rm, tag, deadline)
	}
}

// cancelHedgeTimers cancels every pending deadline check of a fan-in.
func (s *state) cancelHedgeTimers(rm *runningMap) {
	for _, ev := range rm.hedgeTimers {
		s.eng.Cancel(ev)
	}
	clear(rm.hedgeTimers)
	rm.hedgeTimers = rm.hedgeTimers[:0]
}

// dropHedgeTimer forgets a timer that just fired, keeping the tracked
// set to pending timers only.
func (rm *runningMap) dropHedgeTimer(ev *sim.Event) {
	for i, t := range rm.hedgeTimers {
		if t == ev {
			rm.hedgeTimers = append(rm.hedgeTimers[:i], rm.hedgeTimers[i+1:]...)
			return
		}
	}
}
