package mapred_test

import (
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
