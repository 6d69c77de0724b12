package mapred

import (
	"context"
	"testing"
	"time"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sim"
)

// TestPaperScalePerf runs the paper's default scale (40 nodes, 1440
// blocks, 30 reducers), holds the simulator core to its event budget, and
// pins the core's decisions as counts: a change to the engine or the solver
// that claims to be bit-identical must leave every one of them as it is.
// Skipped in -short mode.
func TestPaperScalePerf(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in short mode")
	}
	want := map[SchedulerKind]struct {
		engine sim.Stats
		net    netsim.Stats
	}{
		LF: {sim.Stats{Scheduled: 52248, Cancelled: 1574, Dispatched: 50674, MaxQueue: 201},
			netsim.Stats{Solves: 45390, FlowsVisited: 2720973, Deferred: 41293}},
		EDF: {sim.Stats{Scheduled: 51190, Cancelled: 2417, Dispatched: 48773, MaxQueue: 313},
			netsim.Stats{Solves: 45314, FlowsVisited: 1610381, Deferred: 42007}},
	}
	for _, k := range []SchedulerKind{LF, EDF} {
		cfg := DefaultConfig()
		cfg.Scheduler = k
		cfg.Seed = 1
		start := time.Now()
		r, err := prepare(context.Background(), cfg, []JobSpec{DefaultJob()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.Run(r.params, r.backend, r.jobs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: runtime=%.1fs wall=%v degraded=%d remote=%d degRead=%.2fs",
			k, res.Jobs[0].Runtime(), time.Since(start).Round(time.Millisecond),
			res.Jobs[0].CountByClass()[4], res.Jobs[0].RemoteTasks(),
			res.Jobs[0].MeanDegradedReadTime())
		// The property that keeps this scale cheap, as counts (they repeat
		// exactly, so no wall-clock threshold is needed): a solve schedules
		// one completion event for the whole network and cancels at most
		// the one before it, so events that never fire stay below one per
		// solve. One event per visited flow, which is what the solver did
		// before, would put Scheduled near FlowsVisited — 30 to 50 times
		// Solves here.
		es, ns := r.params.Engine.Stats(), r.params.Net.Stats()
		t.Logf("%s: engine %+v, net %+v", k, es, ns)
		if unfired := es.Scheduled - es.Dispatched; unfired > ns.Solves {
			t.Errorf("%s: %d events scheduled but never dispatched, more than one per solve (%d solves over %d flow visits)",
				k, unfired, ns.Solves, ns.FlowsVisited)
		}
		if es != want[k].engine || ns != want[k].net {
			t.Errorf("%s: engine %+v, net %+v; want %+v, %+v", k, es, ns, want[k].engine, want[k].net)
		}
	}
}
