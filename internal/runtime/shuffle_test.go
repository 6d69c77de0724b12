package runtime

import (
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

// TestShuffleRefsLeaveWithTheirFlows checks the list recoverShuffle walks:
// after every arrival the finished refs still listed never outnumber the
// in-flight ones, the survivors keep their start order, and the list is
// empty once the last flow lands.
func TestShuffleRefsLeaveWithTheirFlows(t *testing.T) {
	cluster := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	eng := sim.New()
	net, err := netsim.New(eng, cluster, netsim.Config{NodeBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	js := &jobState{}
	arrivals := 0
	reqs := make([]netsim.FlowReq, 200)
	for i := range reqs {
		reqs[i] = netsim.FlowReq{
			Src: topology.NodeID(i % 4), Dst: topology.NodeID((i + 1) % 4),
			Bytes: float64(1 + (i*37)%101), // finish order differs from start order
			Done: func(*netsim.Flow) {
				arrivals++
				js.shuffleFlowArrived()
				finished, lastID := 0, -1
				for _, ref := range js.shuffleFlows {
					if ref.flow.Finished() {
						finished++
					}
					if ref.flow.ID <= lastID {
						t.Fatalf("arrival %d: flow %d listed after flow %d", arrivals, ref.flow.ID, lastID)
					}
					lastID = ref.flow.ID
				}
				if 2*finished > len(js.shuffleFlows) {
					t.Fatalf("arrival %d: %d of %d listed refs are finished", arrivals, finished, len(js.shuffleFlows))
				}
			},
		}
	}
	for _, f := range net.StartFlows(reqs) {
		js.shuffleFlows = append(js.shuffleFlows, &shuffleRef{flow: f})
	}
	eng.Run()
	if arrivals != len(reqs) || len(js.shuffleFlows) != 0 {
		t.Fatalf("%d of %d flows arrived, %d refs still listed", arrivals, len(reqs), len(js.shuffleFlows))
	}
}
