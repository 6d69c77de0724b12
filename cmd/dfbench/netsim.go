// Flow-churn benchmark suite (-suite netsim): the optimized transfer path
// — incremental max-min solver scheduling one completion event per solve,
// lazy event cancellation, batched admission — against the reference
// configuration retained in the simulator (full recomputation with one
// event per flow, eager heap removal, one StartFlow per transfer). Both
// sides run the same deterministic workload of fan-in bursts and mid-run
// cancellations, and both must drain completely; the virtual-clock outcome
// is identical by construction (see internal/netsim's equivalence tests),
// so the delta is pure scheduling cost.

package main

import (
	"fmt"
	"io"
	"time"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// churnFlowCounts are the workload scales: light (the common per-heartbeat
// case), medium, and a heavy shuffle storm.
var churnFlowCounts = []int{10, 100, 1000}

const churnBurst = 10 // flows admitted per batch (a reducer fan-in)

// runChurn drives one complete churn workload of nflows transfers over the
// paper's 40-node/4-rack cluster and returns the simulated bytes moved.
// The optimized side uses the incremental solver, lazy cancellation, and
// StartFlows batches; the reference side the retained baselines.
func runChurn(nflows int, optimized bool) float64 {
	cluster := topology.MustNew(topology.Config{Nodes: 40, Racks: 4, MapSlotsPerNode: 1})
	return runChurnOn(cluster, netsim.Config{
		NodeBps: 1000 * netsim.Mbps,
		RackBps: 1000 * netsim.Mbps,
		CoreBps: 4000 * netsim.Mbps,
	}, nflows, optimized)
}

// runChurnOn is runChurn over an arbitrary cluster shape: the same
// deterministic burst/cancel workload, with sources and destinations
// drawn over all of the cluster's nodes.
func runChurnOn(cluster *topology.Cluster, cfg netsim.Config, nflows int, optimized bool) float64 {
	eng := sim.New()
	eng.SetEagerCancel(!optimized)
	nodes := uint64(cluster.NumNodes())
	net, err := netsim.New(eng, cluster, cfg)
	if err != nil {
		panic(fmt.Sprintf("dfbench: netsim: %v", err))
	}
	if optimized {
		net.SetSolver(netsim.IncrementalSolver)
	} else {
		net.SetSolver(netsim.ReferenceSolver)
	}

	rng := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var created []*netsim.Flow
	for i := 0; i < nflows; i += churnBurst {
		at := float64(i) * 0.002
		k := churnBurst
		if k > nflows-i {
			k = nflows - i
		}
		dst := topology.NodeID(next() % nodes)
		reqs := make([]netsim.FlowReq, k)
		for j := range reqs {
			reqs[j] = netsim.FlowReq{
				Src:   topology.NodeID(next() % nodes),
				Dst:   dst,
				Bytes: float64(1+next()%64) * 1e6,
			}
		}
		eng.ScheduleAt(at, func() {
			if optimized {
				created = append(created, net.StartFlows(reqs)...)
			} else {
				for _, r := range reqs {
					created = append(created, net.StartFlow(r.Src, r.Dst, r.Bytes, r.Done))
				}
			}
		})
		// Every other burst, abort one earlier flow mid-transfer (failure
		// recovery exercising the cancellation path).
		if i/churnBurst%2 == 1 {
			victim := int(next() >> 33) // keep it non-negative
			eng.ScheduleAt(at+0.001, func() {
				if len(created) > 0 {
					net.Cancel(created[victim%len(created)])
				}
			})
		}
	}
	eng.Run()
	if err := net.Drained(); err != nil {
		panic(fmt.Sprintf("dfbench: churn workload did not drain: %v", err))
	}
	return net.BytesMoved
}

// netsimResults appends the churn suite to the report: one case per flow
// count, timed for the optimized ("incremental") and reference variants,
// plus a 1k-node fat-tree scale point (the 10k-node/100k-flow storm
// lives in the topology suite). MB/s here is simulated traffic scheduled
// per wall-clock second.
func netsimResults(rep *Report, minTime time.Duration, stderr io.Writer) {
	for _, nflows := range churnFlowCounts {
		name := fmt.Sprintf("netsim-churn/%d-flows", nflows)
		churnCase(rep, minTime, stderr, name, nflows, func(optimized bool) float64 {
			return runChurn(nflows, optimized)
		})
	}
	cluster := scaleCluster(1000)
	churnCase(rep, minTime, stderr, "netsim-scale/1k-nodes-10k-flows", 10000, func(optimized bool) float64 {
		return runChurnOn(cluster, netsim.Config{}, 10000, optimized)
	})
}

// churnCase times one churn workload through both solver configurations
// and appends the pair to the report.
func churnCase(rep *Report, minTime time.Duration, stderr io.Writer, name string, nflows int, run func(optimized bool) float64) {
	simBytes := int64(run(true))
	inc := measure(simBytes, minTime, func(n int) {
		for i := 0; i < n; i++ {
			run(true)
		}
	})
	ref := measure(simBytes, minTime, func(n int) {
		for i := 0; i < n; i++ {
			run(false)
		}
	})
	inc.Name, inc.Variant = name, "incremental"
	ref.Name, ref.Variant = name, "reference"
	rep.Results = append(rep.Results, inc, ref)
	if inc.NsPerOp > 0 {
		rep.Speedups[name] = ref.NsPerOp / inc.NsPerOp
	}
	fmt.Fprintf(stderr, "%-32s incremental %8.1f MB/s  reference %8.1f MB/s  speedup %.2fx\n",
		name, inc.MBPerS, ref.MBPerS, rep.Speedups[name])
}
