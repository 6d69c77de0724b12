package runtime_test

import (
	"testing"

	"degradedfirst/internal/runtime"
	"degradedfirst/internal/trace"
)

// TestBuilderRejectsMalformedTraces holds the Builder to the trace
// grammar: one row per rule, each a trace whose first violation the
// Builder must report with its event. Events are stamped with their
// position (the i-th at t=i), so the message names both. A stale
// map-start, which closes a degraded read, after a requeue, with or
// without a relaunch, is rejected rather than measured against the
// abandoned attempt.
func TestBuilderRejectsMalformedTraces(t *testing.T) {
	ev := func(typ trace.Type, task int, mod ...func(*trace.Event)) trace.Event {
		e := trace.New(0, typ)
		e.Job, e.Task = 0, task
		for _, m := range mod {
			m(&e)
		}
		return e
	}
	job := func(j int) func(*trace.Event) { return func(e *trace.Event) { e.Job = j } }
	node := func(n int) func(*trace.Event) { return func(e *trace.Event) { e.Node = n } }
	n := func(v int) func(*trace.Event) { return func(e *trace.Event) { e.N = v } }
	flow := func(id, src, dst int) func(*trace.Event) {
		return func(e *trace.Event) { e.N, e.Src, e.Dst = id, src, dst }
	}
	stripe := func(class string, block int) func(*trace.Event) {
		return func(e *trace.Event) { e.Name, e.Class, e.N = "f", class, block }
	}

	start, end := ev(trace.EvRunStart, -1), ev(trace.EvRunEnd, -1)
	submit := ev(trace.EvJobSubmit, -1, n(1))
	finish := ev(trace.EvJobFinish, -1)
	launch := ev(trace.EvTaskLaunch, 0, node(1))
	degLaunch := ev(trace.EvTaskLaunch, 0, node(1), func(e *trace.Event) { e.Class = "degraded" })
	plan := ev(trace.EvDegradedPlan, 0, node(1))
	mapStart := ev(trace.EvMapStart, 0, node(1))
	taskFinish := ev(trace.EvTaskFinish, 0, node(1))
	requeue := ev(trace.EvTaskRequeue, 0, node(1))
	redLaunch := ev(trace.EvReduceLaunch, 0, node(2))
	redStart := ev(trace.EvReduceStart, 0, node(2))
	redFinish := ev(trace.EvReduceFinish, 0, node(2))
	fail := func(id int) trace.Event { return ev(trace.EvNodeFail, -1, node(id)) }
	xferStart := ev(trace.EvTransferStart, -1, flow(0, 1, 2))
	xferEnd := ev(trace.EvTransferEnd, -1, flow(0, 1, 2))
	xferCancel := ev(trace.EvTransferCancel, -1, flow(0, 1, 2))
	repQueued := ev(trace.EvRepairQueued, 0, stripe("scan", 1))
	repRequeued := ev(trace.EvRepairQueued, 0, stripe("requeue", 1))
	repLaunch := ev(trace.EvRepairLaunch, 0, stripe("global", 0))
	repDone := ev(trace.EvRepairDone, 0, stripe("global", 0))

	// A well-formed run over every rule, as a control: a degraded attempt
	// requeued, relaunched and finished, its output lost and re-executed
	// by a degraded launch, a reducer reset and relaunched, a cancelled and a finished flow, a
	// repair requeued by a failure and then committed.
	valid := []trace.Event{
		start, submit, launch, plan, requeue, launch, plan, mapStart, taskFinish,
		redLaunch, ev(trace.EvReduceReset, 0, node(2)), redLaunch,
		xferStart, xferCancel, ev(trace.EvTransferStart, -1, flow(1, 1, 2)), ev(trace.EvTransferEnd, -1, flow(1, 1, 2)),
		repQueued, repLaunch, fail(3), repRequeued, repLaunch, repDone,
		requeue, degLaunch, mapStart, taskFinish, redStart, redFinish, finish, end,
	}

	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"valid", valid, ""},

		// Indices.
		{"job never submitted", []trace.Event{start, submit, ev(trace.EvTaskLaunch, 0, job(1))},
			"trace event 3 (task-launch at t=3): job 1 was never submitted"},
		{"map index out of range", []trace.Event{start, submit, ev(trace.EvTaskLaunch, 1)},
			"trace event 3 (task-launch at t=3): job 0 has no map task 1"},
		{"reducer skips an index", []trace.Event{start, submit, ev(trace.EvReduceLaunch, 1)},
			"trace event 3 (reduce-launch at t=3): job 0 has no reducer 1"},
		{"flow ID out of order", []trace.Event{start, ev(trace.EvTransferStart, -1, flow(1, 1, 2))},
			"trace event 2 (transfer-start at t=2): flow 1 is not the next flow ID 0"},
		{"negative node", []trace.Event{start, fail(-1)},
			"trace event 2 (node-fail at t=2): node -1 is not a live node"},
		{"negative job", []trace.Event{start, ev(trace.EvJobSubmit, -1, job(-1), n(1))},
			"trace event 2 (job-submit at t=2): job -1 of 1 maps is out of range"},
		{"job queued but never submitted", []trace.Event{start, ev(trace.EvJobQueued, -1, job(1))},
			"trace event 2 (job-queued at t=2): job 1 was never submitted"},
		{"reducer of a job never submitted", []trace.Event{start, ev(trace.EvReduceLaunch, 0, job(1))},
			"trace event 2 (reduce-launch at t=2): job 1 was never submitted"},

		// Pairing.
		{"second run-start", []trace.Event{start, start},
			"trace event 2 (run-start at t=2): a second run-start"},
		{"run-end without a run", []trace.Event{end},
			"trace event 1 (run-end at t=1): no open run"},
		{"job submitted twice", []trace.Event{start, submit, submit},
			"trace event 3 (job-submit at t=3): job 0 submitted twice"},
		{"job finished twice", []trace.Event{start, submit, finish, finish},
			"trace event 4 (job-finish at t=4): job 0 finished twice"},
		{"launch while live", []trace.Event{start, submit, launch, launch},
			"trace event 4 (task-launch at t=4): job 0 task 0 launched again without a requeue"},
		{"requeue of an idle task", []trace.Event{start, submit, requeue},
			"trace event 3 (task-requeue at t=3): job 0 task 0 has neither a live attempt nor an output to lose"},
		{"stale map-start before a relaunch", []trace.Event{start, submit, launch, plan, requeue, mapStart, launch, plan, mapStart},
			"trace event 6 (map-start at t=6): job 0 task 0 has no live attempt"},
		{"straggler without a relaunch", []trace.Event{start, submit, launch, plan, requeue, mapStart},
			"trace event 6 (map-start at t=6): job 0 task 0 has no live attempt"},
		{"stale flow-latency", []trace.Event{start, submit, launch, requeue, ev(trace.EvFlowLatency, 0, n(0))},
			"trace event 5 (flow-latency at t=5): job 0 task 0 has no live attempt"},
		{"reduce-finish without a launch", []trace.Event{start, submit, redFinish},
			"trace event 3 (reduce-finish at t=3): job 0 reducer 0 has no open reduce-launch"},
		{"reducer launched while open", []trace.Event{start, submit, redLaunch, redLaunch},
			"trace event 4 (reduce-launch at t=4): job 0 reducer 0 launched while open or done"},
		{"transfer closed twice", []trace.Event{start, xferStart, xferEnd, xferCancel},
			"trace event 4 (transfer-cancel at t=4): flow 0 is not open"},
		{"repair-done without a launch", []trace.Event{start, repQueued, repDone},
			"trace event 3 (repair-done at t=3): f#0 has no open repair-launch"},
		{"requeue without a launch", []trace.Event{start, repQueued, repRequeued},
			"trace event 3 (repair-queued at t=3): f#0 requeued with no open repair-launch"},

		// Failed nodes.
		{"node failed twice", []trace.Event{start, fail(1), fail(1)},
			"trace event 3 (node-fail at t=3): node 1 is not a live node"},
		{"launch on a failed node", []trace.Event{start, fail(1), submit, launch},
			"trace event 4 (task-launch at t=4): node 1 has failed"},
		{"transfer finishing on a failed end", []trace.Event{start, xferStart, fail(2), xferEnd},
			"trace event 4 (transfer-finish at t=4): flow 0 finished with a failed end"},

		// Run end.
		{"job never finished", []trace.Event{start, submit, end},
			"trace event 3 (run-end at t=3): job 0 never finished"},
		{"task open at run-end", []trace.Event{start, submit, launch, finish, end},
			"trace event 5 (run-end at t=5): job 0 task 0 never closed"},
		{"reducer open at run-end", []trace.Event{start, ev(trace.EvJobSubmit, -1, n(0)), redLaunch, finish, end},
			"trace event 5 (run-end at t=5): job 0 reducer 0 never closed"},
		{"flow open at run-end", []trace.Event{start, xferStart, end},
			"trace event 3 (run-end at t=3): flow 0 never closed"},
		{"repair open at run-end", []trace.Event{start, repQueued, repLaunch, end},
			"trace event 4 (run-end at t=4): stripes with a repair-launch never closed: 1"},
		{"no run-end", []trace.Event{start},
			"the trace has no run-end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := runtime.NewBuilder()
			for i, e := range tc.events {
				e.T = float64(i + 1)
				b.Consume(&e)
			}
			res, err := b.Result()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("well-formed trace rejected: %v", err)
				}
				// The reducer's record pairs with its relaunch, the 12th event,
				// and the last attempt's degraded read closes at its map-start,
				// one event after its launch.
				if got := res.Jobs[0].Reduces[0].LaunchTime; got != 12 {
					t.Fatalf("reduce launch time = %v, want 12", got)
				}
				if got := res.Jobs[0].Tasks[0].DegradedReadTime; got != 1 {
					t.Fatalf("degraded read time = %v, want 1", got)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
			if res != nil {
				t.Fatal("a rejected trace returned a Result")
			}
		})
	}
}
