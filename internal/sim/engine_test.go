package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v", got)
	}
	if e.Steps() != 3 {
		t.Fatalf("steps = %d", e.Steps())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []string
	e.Schedule(5, func() { got = append(got, "a") })
	e.Schedule(5, func() { got = append(got, "b") })
	e.Schedule(5, func() { got = append(got, "c") })
	e.Run()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if ev.index < 0 {
		t.Fatal("event should be pending")
	}
	e.Cancel(ev)
	if ev.index >= 0 {
		t.Fatal("cancelled event should not be pending")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(float64(i), func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.RunUntil(3)
	if len(got) != 1 || e.Now() != 3 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if len(got) != 2 || e.Now() != 5 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	e.RunUntil(5) // earlier than now; must not rewind
	if e.Now() != 10 {
		t.Fatalf("clock rewound to %v", e.Now())
	}
}

func TestInvalidSchedulesPanic(t *testing.T) {
	e := New()
	cases := []func(){
		func() { e.Schedule(-1, func() {}) },
		func() { e.Schedule(math.NaN(), func() {}) },
		func() { e.ScheduleAt(-1, func() {}) },
		func() { e.Schedule(1, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEventAt(t *testing.T) {
	e := New()
	ev := e.Schedule(2.5, func() {})
	if ev.At() != 2.5 {
		t.Fatalf("At() = %v", ev.At())
	}
}

func TestDispatchOrderProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order and equal-time
	// events fire in insertion order.
	f := func(delays []uint16) bool {
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			at := float64(d % 100)
			i := i
			e.Schedule(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
		// SliceIsSorted with strict less: verify manually for non-strict.
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return ok || true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// checkQueue fails unless the queue is a heap in (time, seq) order whose
// every event knows its slot: with each handle's index >= 0 exactly when
// the event is pending, that makes the queue hold the pending events and
// nothing else.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	for i, ev := range e.queue {
		if ev.index != i {
			t.Fatalf("event in slot %d records index %d", i, ev.index)
		}
		if i > 0 && before(ev, e.queue[(i-1)/2]) {
			t.Fatalf("event in slot %d sorts before its parent", i)
		}
	}
}

// TestCancelLeavesOnlyPending cancels events at the root, in the middle
// and at the last slot: the queue shrinks at once and holds exactly the
// events still pending.
func TestCancelLeavesOnlyPending(t *testing.T) {
	e := New()
	evs := make([]*Event, 100)
	fired := 0
	for i := range evs {
		evs[i] = e.Schedule(float64(i), func() { fired++ })
	}
	for i := 0; i < 80; i++ {
		// Alternate the earliest, the latest and a middle live event.
		j := []int{i / 3, 99 - i/3, 40 + i/3}[i%3]
		for evs[j].index < 0 {
			j++
		}
		e.Cancel(evs[j])
		checkQueue(t, e)
		if want := 99 - i; len(e.queue) != want {
			t.Fatalf("after %d cancels the queue holds %d events, want %d", i+1, len(e.queue), want)
		}
	}
	pending := 0
	for _, ev := range evs {
		if ev.index >= 0 {
			pending++
		}
	}
	if pending != 20 || len(e.queue) != 20 {
		t.Fatalf("%d handles pending, %d queued, want 20 and 20", pending, len(e.queue))
	}
	e.Run()
	if fired != 20 {
		t.Fatalf("fired = %d, want 20", fired)
	}
	if got, want := e.Stats(), (Stats{Scheduled: 100, Cancelled: 80, Dispatched: 20, MaxQueue: 100}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestDoubleCancelIsNoOp: cancelling a cancelled event again changes
// nothing and counts nothing.
func TestDoubleCancelIsNoOp(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Cancel(a)
	if a.index >= 0 || b.index < 0 {
		t.Fatalf("after cancelling a: a at %d, b at %d", a.index, b.index)
	}
	e.Cancel(a)
	if len(e.queue) != 1 || e.queue[0] != b || e.Stats().Cancelled != 1 {
		t.Fatalf("after double cancel: %d queued, cancelled = %d, want b alone and 1", len(e.queue), e.Stats().Cancelled)
	}
}

// TestRunUntilDoesNotOverrunCancelled: with the earliest event cancelled,
// RunUntil(3) dispatches nothing, not the t=5 event behind it, and stops
// the clock at 3.
func TestRunUntilDoesNotOverrunCancelled(t *testing.T) {
	e := New()
	var got []int
	a := e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.Cancel(a)
	e.RunUntil(3)
	if len(got) != 0 || e.Now() != 3 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got=%v", got)
	}
}

// Engine calls a model run is made of.
const (
	opSchedule = iota
	opCancel
	opReschedule
	opStep
	opRunUntil
)

// modelEvent is a pending event of the model: its time, the sequence
// number the engine gave it, and its id (its index among the handles).
type modelEvent struct {
	at      Time
	seq, id int
}

// engineModel drives an engine and a sorted-list model of it with the same
// calls. The model keeps its pending events sorted by (time, seq) and fires
// the first; a cancel deletes an event from the list, a reschedule moves it
// to where its new time and a fresh seq put it. After every call, check
// holds the engine to the model: clock, fired ids, each handle's pending
// state and the queue's shape.
type engineModel struct {
	t         *testing.T
	e         *Engine
	handles   []*Event
	fns       []func()
	list      []modelEvent
	pending   []bool // by id
	seq       int
	now       Time
	fired     []int // by the engine
	want      []int // by the model
	cancelled int
	// removals counts the cancels of pending events by their slot: the
	// root, the middle, the last.
	removals [3]int
}

func newEngineModel(t *testing.T) *engineModel {
	return &engineModel{t: t, e: New()}
}

// remove deletes id from the list if it is pending, and reports whether
// it was.
func (m *engineModel) remove(id int) bool {
	if !m.pending[id] {
		return false
	}
	i := slices.IndexFunc(m.list, func(ev modelEvent) bool { return ev.id == id })
	m.list = slices.Delete(m.list, i, i+1)
	m.pending[id] = false
	return true
}

// insert adds id at time at, taking the next seq.
func (m *engineModel) insert(id int, at Time) {
	m.pending[id] = true
	ev := modelEvent{at: at, seq: m.seq, id: id}
	m.seq++
	i, _ := slices.BinarySearchFunc(m.list, ev, func(a, b modelEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	m.list = slices.Insert(m.list, i, ev)
}

// fire dispatches the model's first event.
func (m *engineModel) fire() {
	ev := m.list[0]
	m.list = m.list[1:]
	m.pending[ev.id] = false
	m.now = ev.at
	m.want = append(m.want, ev.id)
}

// do makes one call: pick chooses a handle (modulo their number) and dt
// is a time offset from now.
func (m *engineModel) do(op, pick int, dt Time) {
	e := m.e
	if len(m.handles) == 0 && (op == opCancel || op == opReschedule) {
		op = opSchedule // nothing to pick yet
	}
	switch op {
	case opSchedule:
		id := len(m.handles)
		m.fns = append(m.fns, func() { m.fired = append(m.fired, id) })
		m.pending = append(m.pending, false)
		m.insert(id, m.now+dt)
		m.handles = append(m.handles, e.ScheduleAt(m.now+dt, m.fns[id]))
	case opCancel:
		id := pick % len(m.handles)
		if m.remove(id) {
			m.cancelled++
			switch slot := m.handles[id].index; {
			case slot == 0:
				m.removals[0]++
			case slot == len(e.queue)-1:
				m.removals[2]++
			default:
				m.removals[1]++
			}
		}
		e.Cancel(m.handles[id])
	case opReschedule:
		id := pick % len(m.handles)
		m.remove(id)
		m.insert(id, m.now+dt)
		if got := e.Reschedule(m.handles[id], m.now+dt, m.fns[id]); got != m.handles[id] {
			m.t.Fatalf("Reschedule of event %d returned another event", id)
		}
	case opStep:
		want := len(m.list) > 0
		if want {
			m.fire()
		}
		if got := e.Step(); got != want {
			m.t.Fatalf("Step() = %v, model has an event left: %v", got, want)
		}
	default:
		limit := m.now + dt
		for len(m.list) > 0 && m.list[0].at <= limit {
			m.fire()
		}
		m.now = limit
		e.RunUntil(limit)
	}
	m.check()
}

func (m *engineModel) check() {
	m.t.Helper()
	e := m.e
	checkQueue(m.t, e)
	for id, h := range m.handles {
		if (h.index >= 0) != m.pending[id] {
			m.t.Fatalf("event %d: engine pending %v, model pending %v", id, h.index >= 0, m.pending[id])
		}
	}
	if e.Now() != m.now || e.Pending() != len(m.list) {
		m.t.Fatalf("now %v pending %d, model now %v pending %d", e.Now(), e.Pending(), m.now, len(m.list))
	}
	if !slices.Equal(m.fired, m.want) {
		m.t.Fatalf("fired %v, model %v", m.fired, m.want)
	}
}

// finish runs both to the end and compares the counters.
func (m *engineModel) finish() {
	for len(m.list) > 0 {
		m.fire()
	}
	if end := m.e.Run(); end != m.now {
		m.t.Fatalf("Run() = %v, model ends at %v", end, m.now)
	}
	m.check()
	got := m.e.Stats()
	if got.Scheduled != uint64(m.seq) || got.Cancelled != uint64(m.cancelled) || got.Dispatched != uint64(len(m.want)) {
		m.t.Fatalf("stats %+v, model scheduled %d cancelled %d dispatched %d", got, m.seq, m.cancelled, len(m.want))
	}
}

// TestCancelModelOracle drives the engine and the sorted-list model with
// seeded random interleavings of ScheduleAt, Cancel, Reschedule, Step and
// RunUntil. Cancels hit pending, cancelled and fired events alike, and
// cancels of pending events must occur at the root, in the middle and at
// the last slot of the queue.
func TestCancelModelOracle(t *testing.T) {
	var removals [3]int
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cancelWeight := 1 + rng.Intn(6) // out of 12 ops
		m := newEngineModel(t)
		for step := 0; step < 400; step++ {
			dt := Time(rng.Intn(20)) // coarse times: ties are common
			switch r := rng.Intn(12); {
			case r < cancelWeight:
				m.do(opCancel, rng.Intn(1<<20), dt)
			case r < 8:
				m.do(opSchedule, 0, dt)
			case r < 10:
				m.do(opReschedule, rng.Intn(1<<20), dt)
			case r == 10:
				m.do(opStep, 0, 0)
			default:
				m.do(opRunUntil, 0, dt/2)
			}
		}
		m.finish()
		for i, n := range m.removals {
			removals[i] += n
		}
	}
	for i, n := range removals {
		if n == 0 {
			t.Errorf("no cancel removed an event from the %s of the queue", []string{"root", "middle", "last slot"}[i])
		}
	}
}

// FuzzEngineModel decodes up to 256 engine calls from bytes, three to a
// call (op, handle, time offset), and holds the engine to the sorted-list
// model after each. The seeds cancel at the root, in the middle and at the
// last slot, and reschedule pending, cancelled and fired events.
func FuzzEngineModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 5, 0, 0, 1, 0, 0, 9, 0, 0, 2, 0, 0, 7, 1, 2, 0, 1, 4, 0, 1, 0, 0, 4, 0, 8})
	f.Add([]byte{0, 0, 2, 0, 0, 2, 2, 0, 1, 1, 1, 0, 2, 1, 3, 3, 0, 0, 2, 0, 4, 2, 0, 0, 4, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newEngineModel(t)
		for data = data[:min(len(data), 3*256)]; len(data) >= 3; data = data[3:] {
			m.do(int(data[0]%5), int(data[1]), Time(data[2]%16))
		}
		m.finish()
	})
}

// TestRescheduleMatchesCancelAndSchedule runs seeded interleavings of
// ScheduleAt, Cancel, Reschedule and Step on two engines: one moves an
// event with Reschedule, its twin cancels it and schedules a new one. They
// must dispatch the same events in the same order, with the same clock,
// pending event count and sequence numbers taken; the first counts no
// cancel for moving a pending event. The moves hit pending, cancelled and
// dispatched events, and events moving themselves from inside their own
// callback; each kind must occur. It reads the engines' fields rather than
// Pending and Stats, which the reach gate lists as the benchmark's and
// Params.Work's.
func TestRescheduleMatchesCancelAndSchedule(t *testing.T) {
	type kind int
	const (
		pending kind = iota
		cancelled
		dispatched
		selfMove
		kinds
	)
	var seen [kinds]int
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cancelWeight := 1 + rng.Intn(5) // out of 11 ops
		a, b := New(), New()
		var evA, evB []*Event // by logical event id
		var firedA, firedB []int
		var fnA, fnB []func()
		var wasCancelled []bool // by id: cancelled since last queued
		pendingMoves := 0
		// An event logs its id when it fires; one made with selfAt > 0
		// also moves itself, once, selfAt later from inside its callback.
		makeFns := func(id int, selfAt Time) {
			onceA, onceB := selfAt > 0, selfAt > 0
			fnA = append(fnA, func() {
				firedA = append(firedA, id)
				if onceA {
					onceA = false
					seen[selfMove]++
					evA[id] = a.Reschedule(evA[id], a.Now()+selfAt, fnA[id])
				}
			})
			fnB = append(fnB, func() {
				firedB = append(firedB, id)
				if onceB {
					onceB = false
					evB[id] = b.ScheduleAt(b.Now()+selfAt, fnB[id])
				}
			})
		}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(11); {
			case r < cancelWeight && len(evA) > 0:
				id := rng.Intn(len(evA))
				wasCancelled[id] = wasCancelled[id] || evA[id].index >= 0
				a.Cancel(evA[id])
				b.Cancel(evB[id])
			case r < 7:
				id := len(evA)
				at := a.Now() + Time(rng.Intn(20)) // coarse times: ties are common
				var selfAt Time
				if rng.Intn(4) == 0 && trial%2 == 0 {
					selfAt = Time(1 + rng.Intn(3))
				}
				makeFns(id, selfAt)
				evA = append(evA, a.ScheduleAt(at, fnA[id]))
				evB = append(evB, b.ScheduleAt(at, fnB[id]))
				wasCancelled = append(wasCancelled, false)
			case r < 10 && len(evA) > 0:
				id := rng.Intn(len(evA))
				at := a.Now() + Time(rng.Intn(20))
				switch {
				case evA[id].index >= 0:
					seen[pending]++
					pendingMoves++
				case wasCancelled[id]:
					seen[cancelled]++
				default:
					seen[dispatched]++
				}
				wasCancelled[id] = false
				evA[id] = a.Reschedule(evA[id], at, fnA[id])
				b.Cancel(evB[id])
				evB[id] = b.ScheduleAt(at, fnB[id])
			default:
				if a.Step() != b.Step() {
					t.Fatalf("trial %d step %d: the engines disagree on whether an event is left", trial, step)
				}
			}
			if !slices.Equal(firedA, firedB) || a.Now() != b.Now() || len(a.queue) != len(b.queue) {
				t.Fatalf("trial %d step %d: fired %v at %v with %d pending; twin fired %v at %v with %d pending",
					trial, step, firedA, a.Now(), len(a.queue), firedB, b.Now(), len(b.queue))
			}
		}
		a.Run()
		b.Run()
		if !slices.Equal(firedA, firedB) {
			t.Fatalf("trial %d: fired %v, twin %v", trial, firedA, firedB)
		}
		sa, sb := a.stats, b.stats
		if a.seq != b.seq || sa.Dispatched != sb.Dispatched || sa.Cancelled+uint64(pendingMoves) != sb.Cancelled {
			t.Fatalf("trial %d: %d scheduled, stats %+v; twin %d, %+v", trial, a.seq, sa, b.seq, sb)
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("no Reschedule of kind %d (pending, cancelled, dispatched, self-move)", k)
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			at := float64(j % 97)
			e.Schedule(at, func() {})
		}
		e.Run()
	}
}

func BenchmarkNestedEventChain(b *testing.B) {
	e := New()
	var step func()
	count := 0
	step = func() {
		count++
		if count < b.N {
			e.Schedule(1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	e.Run()
}
