package mapred_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// shuffleHeavyConfig is a 12-node cluster with finite rack bandwidth and a
// job whose shuffle keeps the network busy for most of the run.
func shuffleHeavyConfig() (mapred.Config, mapred.JobSpec) {
	cfg := mapred.DefaultConfig()
	cfg.Nodes = 12
	cfg.Racks = 3
	cfg.N = 6
	cfg.K = 4
	cfg.BlockSizeBytes = 16e6
	cfg.NumBlocks = 120
	cfg.RackBps = 100 * netsim.Mbps
	cfg.Failure = topology.NoFailure
	job := mapred.DefaultJob()
	job.MapTime = mapred.Dist{Mean: 5, Std: 0.5}
	job.ReduceTime = mapred.Dist{Mean: 8, Std: 1}
	job.NumReduceTasks = 6
	job.ShuffleRatio = 4 // long shuffle transfers, so failures land mid-flight
	return cfg, job
}

func TestTraceFlowRateEvents(t *testing.T) {
	var mem trace.Memory
	cfg, job := shuffleHeavyConfig()
	cfg.Seed = 11
	cfg.Trace = &mem
	cfg.TraceFlowRates = true
	if _, err := mapred.Run(cfg, []mapred.JobSpec{job}); err != nil {
		t.Fatal(err)
	}
	var rates []trace.Event
	for _, e := range mem.Events() {
		if e.Type == trace.EvFlowRate {
			rates = append(rates, e)
		}
	}
	if len(rates) == 0 {
		t.Fatal("TraceFlowRates produced no flow-rate events")
	}
	sawFinite, sawUnlimited := false, false
	for _, e := range rates {
		if math.IsInf(e.Bytes, 0) || math.IsNaN(e.Bytes) {
			t.Fatalf("flow-rate event with non-marshalable rate %v", e.Bytes)
		}
		if e.Bytes > 0 {
			sawFinite = true
		}
		if e.Bytes == -1 {
			sawUnlimited = true // intra-rack flow over unlimited NICs
		}
		if _, err := json.Marshal(e); err != nil {
			t.Fatalf("flow-rate event not JSON-marshalable: %v", err)
		}
	}
	if !sawFinite {
		t.Fatal("no finite rate recorded")
	}
	if !sawUnlimited {
		t.Fatal("no unlimited-rate (-1) record despite unlimited NICs")
	}

	// Off by default: the same run without the flag emits none.
	var quiet trace.Memory
	cfg2, job2 := shuffleHeavyConfig()
	cfg2.Seed = 11
	cfg2.Trace = &quiet
	if _, err := mapred.Run(cfg2, []mapred.JobSpec{job2}); err != nil {
		t.Fatal(err)
	}
	for _, e := range quiet.Events() {
		if e.Type == trace.EvFlowRate {
			t.Fatal("flow-rate event emitted with tracing disabled")
		}
	}
}

// TestFlowRateTracingObservesWithoutSteering: with TraceFlowRates on, every
// bandwidth solve runs progressive filling so the rates it reports are the
// rates of each solve; with it off, a completion cascade's solves are
// answered without filling (netsim's drain test). The two runs must be
// the same run: equal results, and equal traces but for the flow-rate
// events themselves.
func TestFlowRateTracingObservesWithoutSteering(t *testing.T) {
	run := func(rates bool) (*mapred.Result, []trace.Event) {
		var mem trace.Memory
		cfg, job := shuffleHeavyConfig()
		cfg.Seed = 11
		cfg.Trace = &mem
		cfg.TraceFlowRates = rates
		cfg.FailNodes = []topology.NodeID{5}
		cfg.FailAt = 8 // cancels in-flight shuffle transfers as well
		res, err := mapred.Run(cfg, []mapred.JobSpec{job})
		if err != nil {
			t.Fatal(err)
		}
		var kept []trace.Event
		for _, e := range mem.Events() {
			if e.Type != trace.EvFlowRate {
				kept = append(kept, e)
			}
		}
		return res, kept
	}
	quiet, quietTrace := run(false)
	traced, tracedTrace := run(true)
	if !reflect.DeepEqual(quiet, traced) {
		t.Errorf("results differ: makespan %v without flow-rate tracing, %v with", quiet.Makespan, traced.Makespan)
	}
	if len(quietTrace) != len(tracedTrace) {
		t.Fatalf("%d events without flow-rate tracing, %d with", len(quietTrace), len(tracedTrace))
	}
	for i := range quietTrace {
		if quietTrace[i] != tracedTrace[i] {
			t.Fatalf("event %d differs:\nwithout: %+v\nwith:    %+v", i, quietTrace[i], tracedTrace[i])
		}
	}
}

func TestMidRunFailureCancelsInFlightTransfers(t *testing.T) {
	// Fail a node while its shuffle transfers are in flight: the runtime
	// must cancel the affected flows, requeue the interrupted work, and
	// still complete the job. The shuffle is nearly continuous in this
	// configuration, so at least one of the candidate failure instants
	// catches a transfer mid-flight.
	sawCancel, sawRequeue := false, false
	for _, failAt := range []float64{6, 8, 10} {
		var mem trace.Memory
		cfg, job := shuffleHeavyConfig()
		cfg.Seed = 13
		cfg.Trace = &mem
		cfg.FailNodes = []topology.NodeID{5}
		cfg.FailAt = failAt
		res, err := mapred.Run(cfg, []mapred.JobSpec{job})
		if err != nil {
			t.Fatalf("failAt=%v: %v", failAt, err)
		}
		jr := res.Jobs[0]
		for _, rec := range jr.Tasks {
			if rec.FinishTime == 0 {
				t.Fatalf("failAt=%v: task %d never completed", failAt, rec.Task)
			}
			if rec.Node == 5 && rec.FinishTime > failAt {
				t.Fatalf("failAt=%v: task %d finished on the dead node", failAt, rec.Task)
			}
		}
		for _, e := range mem.Events() {
			switch e.Type {
			case trace.EvTransferCancel:
				sawCancel = true
				if e.T < failAt {
					t.Fatalf("transfer cancelled at %v, before the failure at %v", e.T, failAt)
				}
			case trace.EvTaskRequeue:
				sawRequeue = true
			}
		}
	}
	if !sawCancel {
		t.Fatal("no in-flight transfer was cancelled by the mid-run failure")
	}
	if !sawRequeue {
		t.Fatal("no task was requeued by the mid-run failure")
	}
}
