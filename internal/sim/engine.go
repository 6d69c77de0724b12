// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock and an event queue ordered by (time, insertion sequence).
// It replaces the CSIM20 library the paper's simulator was built on.
//
// The engine is single-goroutine by design: all simulated "processes"
// (master, slaves, network flows) are event callbacks. Determinism — the
// same seed always yields the same schedule — is guaranteed by breaking
// time ties with a monotone sequence number.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback. Cancel it via Engine.Cancel.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 when not pending
	fn    func()
}

// At returns the time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Stats counts the engine's own work since New. The counts depend only on
// the calls made, so a seeded run repeats them exactly.
type Stats struct {
	Scheduled  uint64 // Schedule / ScheduleAt / Reschedule calls
	Cancelled  uint64 // Cancel calls that removed a pending event
	Dispatched uint64 // events run by Step / Run / RunUntil
	MaxQueue   int    // the most events pending at once
}

// Engine is the simulation core. The zero value is not usable; call New.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	stats Stats // Scheduled is derived from seq, see Stats

	// slab carves Event allocations out of fixed-size chunks, so a
	// Schedule call pays a heap allocation once per 256 events. Entries
	// are never reused; a chunk is reclaimed when all its events are.
	slab []Event
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns how many events have been dispatched; useful in tests and
// for detecting runaway simulations.
func (e *Engine) Steps() uint64 { return e.stats.Dispatched }

// Stats returns the engine's work counters so far.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Scheduled = e.seq // every scheduled event takes one sequence number
	return s
}

// Schedule queues fn to run after delay seconds of virtual time. A negative
// or NaN delay panics: it would corrupt the causal order and always
// indicates a bug in the caller.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if len(e.slab) == 0 {
		e.slab = make([]Event, 256)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	ev.index = -1
	return e.Reschedule(ev, t, fn)
}

// Reschedule queues ev again at absolute time t (>= Now) with fn, and
// returns it; a nil ev schedules a fresh event. It takes the next sequence
// number, so ev dispatches exactly where Cancel(ev) followed by
// ScheduleAt(t, fn) would put the new event, but it counts no
// cancellation. A pending ev moves; a cancelled or dispatched one is
// queued again, from inside its own callback too.
func (e *Engine) Reschedule(ev *Event, t Time, fn func()) *Event {
	if ev == nil {
		return e.ScheduleAt(t, fn)
	}
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	if ev.index >= 0 {
		e.queue.fix(ev.index)
		return ev
	}
	e.queue = append(e.queue, ev)
	e.queue.up(len(e.queue) - 1)
	e.stats.MaxQueue = max(e.stats.MaxQueue, len(e.queue))
	return ev
}

// Cancel removes a pending event from the queue. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.stats.Cancelled++
	e.queue.remove(ev.index)
	ev.fn = nil // release the closure
}

// Step dispatches the next event, advancing the clock. It returns false
// if no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.dispatch()
	return true
}

// dispatch runs the first queued event.
func (e *Engine) dispatch() {
	ev := e.queue[0]
	e.queue.remove(0)
	e.now = ev.at
	e.stats.Dispatched++
	ev.fn()
}

// Run dispatches events until the queue is empty and returns the final
// clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.dispatch()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// eventHeap is a binary min-heap of events in (time, seq) order, written
// for *Event rather than run through container/heap's interface calls (the
// queue is the engine's inner loop); each event's index is its slot. The
// order is total (seq is unique), so any heap pops the same sequence.
type eventHeap []*Event

// before reports whether a is dispatched before b.
func before(a, b *Event) bool {
	//lint:ignore floateq exact comparison is the point: equal times fall through to the monotone seq tie-break
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove takes the event at i out of the heap: the last event fills its
// slot and moves to where it sorts.
func (h *eventHeap) remove(i int) {
	old, last := *h, len(*h)-1
	old[i].index = -1
	old[i], old[last] = old[last], nil
	*h = old[:last]
	if i < last {
		h.fix(i)
	}
}

// up moves the event at j rootward past every parent it sorts before.
func (h eventHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !before(ev, p) {
			break
		}
		h[j], p.index = p, j
		j = i
	}
	h[j], ev.index = ev, j
}

// fix restores the heap order after the event at i changed its key.
func (h eventHeap) fix(i int) {
	ev := h[i]
	h.up(i)
	if ev.index == i {
		h.down(i)
	}
}

// down moves the event at i leafward past every child that sorts before it.
func (h eventHeap) down(i int) {
	ev := h[i]
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i], h[c].index = h[c], i
		i = c
	}
	h[i], ev.index = ev, i
}
