package runtime_test

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// The seed-golden tests pin the FIFO job-scheduling policy to exact trace
// streams, first recorded from the pre-jobsched runtime and since
// re-recorded whole, so they hold every event type it emits. Unlike the
// decision-level golden tests above, these compare *every* event —
// heartbeats, slot-idle markers, job queueing, transfers, shuffle, reduce
// lifecycle — over a multi-job scenario with staggered submissions,
// reducers, and a mid-run failure, so any drift in queue ordering, pruning,
// requeue insertion, or reducer assignment shows up as a diff.
//
// Regenerate with: bash scripts/goldens.sh update (which runs these tests
// with -update).
var update = flag.Bool("update", false, "rewrite the seed golden trace files under testdata/")

// buildResult replays a recorded single-run trace into its Result.
func buildResult(t *testing.T, events []trace.Event) *runtime.Result {
	t.Helper()
	b := runtime.NewBuilder()
	for _, e := range events {
		b.Consume(&e)
	}
	res, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var seedGoldenKinds = []sched.Kind{sched.KindLF, sched.KindBDF, sched.KindEDF}

// seedTraceMapred runs the simulated backend over a three-job scenario —
// staggered arrivals, two tenants, reducers, a map-only job, and a node
// failure injected mid-map-phase — once per scheduler kind, all into one
// labeled stream.
func seedTraceMapred(t *testing.T) []trace.Event {
	t.Helper()
	var all []trace.Event
	for _, kind := range seedGoldenKinds {
		var mem trace.Memory
		cfg := mapred.Config{
			Nodes:              goldenNodes,
			Racks:              goldenRacks,
			MapSlotsPerNode:    goldenMapSlots,
			ReduceSlotsPerNode: 1,
			N:                  4,
			K:                  2,
			BlockSizeBytes:     64e6,
			NumBlocks:          goldenBlocks,
			Policy:             placement.RoundRobin{},
			Options: runtime.Options{
				Scheduler:         kind,
				RackBps:           netsim.Gbps,
				HeartbeatInterval: goldenHeartbeat,
				Seed:              7,
				Trace:             &mem,
				TraceLabel:        kind.String(),
			},
			FailNodes: []topology.NodeID{1},
			FailAt:    8,
		}
		jobs := []mapred.JobSpec{
			{
				Name:           "tenant-a/j0",
				NumBlocks:      16,
				MapTime:        mapred.Dist{Mean: 5, Std: 0.5},
				ReduceTime:     mapred.Dist{Mean: 4, Std: 0.4},
				NumReduceTasks: 2,
				ShuffleRatio:   0.2,
				SubmitAt:       0,
			},
			{
				Name:           "tenant-b/j1",
				NumBlocks:      8,
				MapTime:        mapred.Dist{Mean: 4, Std: 0.3},
				ReduceTime:     mapred.Dist{Mean: 3, Std: 0.2},
				NumReduceTasks: 1,
				ShuffleRatio:   0.3,
				SubmitAt:       6,
			},
			{
				Name:      "tenant-a/j2",
				NumBlocks: 6,
				MapTime:   mapred.Dist{Mean: 3, Std: 0.2},
				SubmitAt:  11,
			},
		}
		if _, err := mapred.Run(cfg, jobs); err != nil {
			t.Fatalf("mapred %v: %v", kind, err)
		}
		all = append(all, mem.Events()...)
	}
	return all
}

// seedTraceMinimr runs the real-bytes backend over the matching scenario:
// three staggered jobs (two with reducers, one map-only) on a DFS with a
// pre-failed node, once per scheduler kind.
func seedTraceMinimr(t *testing.T) []trace.Event {
	t.Helper()
	var all []trace.Event
	for _, kind := range seedGoldenKinds {
		cluster, err := topology.New(topology.Config{
			Nodes:              goldenNodes,
			Racks:              goldenRacks,
			MapSlotsPerNode:    goldenMapSlots,
			ReduceSlotsPerNode: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := dfs.New(cluster, erasure.MustNew(4, 2), goldenBlockSize,
			placement.RoundRobin{}, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Repeat("alpha beta gamma delta epsilon\n", 40)
		for _, f := range []struct {
			name   string
			blocks int
		}{{"in0", 16}, {"in1", 8}, {"in2", 6}} {
			data := []byte(strings.Repeat(text, f.blocks*goldenBlockSize/len(text)+1))[:f.blocks*goldenBlockSize]
			if _, err := fs.Write(f.name, data); err != nil {
				t.Fatal(err)
			}
		}
		cluster.FailNode(1)

		var mem trace.Memory
		opts := minimr.Options{
			Scheduler:         kind,
			RackBps:           netsim.Gbps,
			HeartbeatInterval: goldenHeartbeat,
			Seed:              2,
			Trace:             &mem,
			TraceLabel:        kind.String(),
		}
		wordCount := func(block []byte, emit func(k, v string)) {
			for _, w := range strings.Fields(string(block)) {
				emit(w, "1")
			}
		}
		countReduce := func(key string, values []string, emit func(k, v string)) {
			emit(key, strconv.Itoa(len(values)))
		}
		jobs := []minimr.Job{
			{
				Name: "tenant-a/j0", Input: "in0",
				Map: wordCount, Reduce: countReduce, NumReducers: 2,
				MapCost:    minimr.Cost{Fixed: 5},
				ReduceCost: minimr.Cost{Fixed: 4},
				SubmitAt:   0,
			},
			{
				Name: "tenant-b/j1", Input: "in1",
				Map: wordCount, Reduce: countReduce, NumReducers: 1,
				MapCost:    minimr.Cost{Fixed: 4},
				ReduceCost: minimr.Cost{Fixed: 3},
				SubmitAt:   6,
			},
			{
				Name: "tenant-a/j2", Input: "in2",
				Map:      wordCount,
				MapCost:  minimr.Cost{Fixed: 3},
				SubmitAt: 11,
			},
		}
		if _, err := minimr.Run(fs, opts, jobs); err != nil {
			t.Fatalf("minimr %v: %v", kind, err)
		}
		all = append(all, mem.Events()...)
	}
	return all
}

func seedGoldenCompare(t *testing.T, file string, run func(*testing.T) []trace.Event) {
	t.Helper()
	path := filepath.Join("testdata", file)
	live := run(t)

	if *update {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		sink := trace.NewJSONL(f)
		for _, e := range live {
			sink.Emit(e)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d events to %s", len(live), path)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: bash scripts/goldens.sh update)", err)
	}
	defer f.Close()
	want, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with: bash scripts/goldens.sh update)", path, err)
	}

	if len(live) != len(want) {
		t.Errorf("event count %d, want %d (seed)", len(live), len(want))
	}
	n := len(live)
	if len(want) < n {
		n = len(want)
	}
	diffs := 0
	for i := 0; i < n; i++ {
		if live[i] != want[i] {
			t.Errorf("event %d diverges from seed:\n  live: %+v\n  seed: %+v", i, live[i], want[i])
			if diffs++; diffs >= 10 {
				t.Fatalf("more than 10 divergent events; aborting")
			}
		}
	}

	// The rebuilt results must also agree per scheduler kind: identical
	// events imply identical makespan/bytes-moved, but check explicitly so
	// a comparison bug here can't mask a regression.
	for _, kind := range seedGoldenKinds {
		label := kind.String()
		var lk, wk []trace.Event
		for _, e := range live {
			if e.Run == label {
				lk = append(lk, e)
			}
		}
		for _, e := range want {
			if e.Run == label {
				wk = append(wk, e)
			}
		}
		lr, wr := buildResult(t, lk), buildResult(t, wk)
		if lr.Makespan != wr.Makespan || lr.BytesMoved != wr.BytesMoved {
			t.Errorf("%s: makespan/bytes = %.6f/%.0f, seed %.6f/%.0f",
				label, lr.Makespan, lr.BytesMoved, wr.Makespan, wr.BytesMoved)
		}
	}
}

func TestSeedGoldenFIFOMapred(t *testing.T) {
	seedGoldenCompare(t, "seed_fifo_mapred.jsonl", seedTraceMapred)
}

func TestSeedGoldenFIFOMinimr(t *testing.T) {
	seedGoldenCompare(t, "seed_fifo_minimr.jsonl", seedTraceMinimr)
}
