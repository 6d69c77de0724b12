package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// scheduled reports whether the event is still pending.
func scheduled(e *Event) bool { return e.index >= 0 && !e.dead }

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
	if !scheduled(ev) {
		t.Fatal("event should be pending")
	}
	e.Cancel(ev)
	if scheduled(ev) {
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

func TestLazyCancelCompaction(t *testing.T) {
	e := New()
	evs := make([]*Event, 100)
	fired := 0
	for i := range evs {
		evs[i] = e.Schedule(float64(i), func() { fired++ })
	}
	// Cancel well past half the heap: compaction must kick in and keep the
	// queue within 2x the live population.
	for i := 0; i < 80; i++ {
		e.Cancel(evs[i])
	}
	if e.Pending() != 20 {
		t.Fatalf("pending = %d, want 20", e.Pending())
	}
	if len(e.queue) > 2*20 {
		t.Fatalf("queue not compacted: len=%d ndead=%d", len(e.queue), e.ndead)
	}
	e.Run()
	if fired != 20 {
		t.Fatalf("fired = %d, want 20", fired)
	}
	if e.Steps() != 20 {
		t.Fatalf("steps = %d, want 20 (tombstones must not count)", e.Steps())
	}
	if got, want := e.Stats(), (Stats{Scheduled: 100, Cancelled: 80, Dispatched: 20, MaxQueue: 100}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestLazyCancelScheduledAndPending(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Cancel(a)
	if scheduled(a) {
		t.Fatal("tombstoned event reports Scheduled")
	}
	if !scheduled(b) {
		t.Fatal("live event must stay Scheduled")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Cancel(a) // double cancel of a tombstone is a no-op
	if e.Pending() != 1 || e.Stats().Cancelled != 1 {
		t.Fatalf("after double cancel: pending = %d, cancelled = %d, want 1 and 1", e.Pending(), e.Stats().Cancelled)
	}
}

func TestRunUntilSkipsTombstonesWithoutOverrunning(t *testing.T) {
	e := New()
	var got []int
	a := e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.Cancel(a)
	// The queue head (t=1) is dead; RunUntil(3) must discard it without
	// dispatching the t=5 event or advancing the clock past 3.
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

// TestCancelModelOracle drives the engine and a brute-force model with the
// same random interleaving of ScheduleAt, Cancel, Step and RunUntil. The
// model keeps every event ever scheduled and fires, each time, the live
// one least in (time, id) order; a cancelled event never fires. Cancels
// hit live, already-cancelled and already-fired events alike, and the
// cancel-heavy trials tombstone enough of the queue to compact it.
func TestCancelModelOracle(t *testing.T) {
	type modelEvent struct {
		at               Time
		cancelled, fired bool
	}
	compactions := 0
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cancelWeight := 1 + rng.Intn(6) // out of 10 ops
		e := New()
		var model []modelEvent // indexed by id, which is also the engine's seq
		var handles []*Event
		var fired, want []int
		var now Time
		cancels := 0

		live := func(id int) bool { return !model[id].cancelled && !model[id].fired }
		next := func() int {
			best := -1
			for id := range model {
				if live(id) && (best < 0 || model[id].at < model[best].at) {
					best = id
				}
			}
			return best
		}
		dispatch := func(id int) {
			model[id].fired = true
			now = model[id].at
			want = append(want, id)
		}

		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < cancelWeight && len(handles) > 0:
				id := rng.Intn(len(handles))
				if rng.Intn(2) == 0 { // prefer a live target, if any
					for probe := 0; probe < len(handles) && !live(id); probe++ {
						id = (id + 1) % len(handles)
					}
				}
				if live(id) {
					model[id].cancelled = true
					cancels++
				}
				before := len(e.queue)
				e.Cancel(handles[id])
				if len(e.queue) < before {
					compactions++
				}
			case r < 8:
				id := len(handles)
				at := now + Time(rng.Intn(20)) // coarse times: ties are common
				model = append(model, modelEvent{at: at})
				handles = append(handles, e.ScheduleAt(at, func() { fired = append(fired, id) }))
			case r == 8:
				id := next()
				if got := e.Step(); got != (id >= 0) {
					t.Fatalf("trial %d step %d: Step() = %v, model has next event %d", trial, step, got, id)
				}
				if id >= 0 {
					dispatch(id)
				}
			default:
				limit := now + Time(rng.Intn(10))
				for id := next(); id >= 0 && model[id].at <= limit; id = next() {
					dispatch(id)
				}
				now = limit
				e.RunUntil(limit)
			}

			nlive := 0
			for id := range model {
				if live(id) {
					nlive++
				}
				if scheduled(handles[id]) != live(id) {
					t.Fatalf("trial %d step %d: event %d Scheduled() = %v, model live = %v",
						trial, step, id, scheduled(handles[id]), live(id))
				}
			}
			if e.Now() != now || e.Pending() != nlive {
				t.Fatalf("trial %d step %d: now %v pending %d, model now %v live %d",
					trial, step, e.Now(), e.Pending(), now, nlive)
			}
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("trial %d step %d: fired %v, model %v", trial, step, fired, want)
			}
		}

		for id := next(); id >= 0; id = next() {
			dispatch(id)
		}
		if end := e.Run(); end != now {
			t.Fatalf("trial %d: Run() = %v, model ends at %v", trial, end, now)
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("trial %d: fired %v, model %v", trial, fired, want)
		}
		got := e.Stats()
		if got.Scheduled != uint64(len(model)) || got.Cancelled != uint64(cancels) || got.Dispatched != uint64(len(want)) {
			t.Fatalf("trial %d: stats %+v, model scheduled %d cancelled %d dispatched %d",
				trial, got, len(model), cancels, len(want))
		}
	}
	if compactions == 0 {
		t.Fatal("no trial cancelled enough to compact the queue")
	}
}

// TestRescheduleMatchesCancelAndSchedule runs seeded interleavings of
// ScheduleAt, Cancel, Reschedule and Step on two engines: one moves an
// event with Reschedule, its twin cancels it and schedules a new one. They
// must dispatch the same events in the same order, with the same clock,
// live event count and sequence numbers taken; the first counts no cancel
// for moving a pending event. The moves hit pending events, tombstones
// still queued, tombstones compacted out, dispatched events, and events
// moving themselves from inside their own callback; each kind must occur.
// It reads the engines' fields rather than Pending and Stats, which the
// reach gate lists as the benchmark's and Params.Work's.
func TestRescheduleMatchesCancelAndSchedule(t *testing.T) {
	type kind int
	const (
		pending kind = iota
		tombstone
		compacted
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
			case r < 10 && len(evA) > 0:
				id := rng.Intn(len(evA))
				at := a.Now() + Time(rng.Intn(20))
				switch ev := evA[id]; {
				case ev.index >= 0 && !ev.dead:
					seen[pending]++
					pendingMoves++
				case ev.index >= 0:
					seen[tombstone]++
				case ev.dead:
					seen[compacted]++
				default:
					seen[dispatched]++
				}
				evA[id] = a.Reschedule(evA[id], at, fnA[id])
				b.Cancel(evB[id])
				evB[id] = b.ScheduleAt(at, fnB[id])
			default:
				if a.Step() != b.Step() {
					t.Fatalf("trial %d step %d: the engines disagree on whether an event is left", trial, step)
				}
			}
			liveA, liveB := len(a.queue)-a.ndead, len(b.queue)-b.ndead
			if !slices.Equal(firedA, firedB) || a.Now() != b.Now() || liveA != liveB {
				t.Fatalf("trial %d step %d: fired %v at %v with %d pending; twin fired %v at %v with %d pending",
					trial, step, firedA, a.Now(), liveA, firedB, b.Now(), liveB)
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
			t.Errorf("no Reschedule of kind %d (pending, tombstone, compacted, dispatched, self-move)", k)
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
