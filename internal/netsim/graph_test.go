package netsim

import (
	"fmt"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

func mustFatTreeCluster(t testing.TB, cfg topology.FatTreeConfig) *topology.Cluster {
	t.Helper()
	spec, err := topology.FatTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := topology.New(topology.Config{Spec: &spec, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// linkNames names every link of n after the table that holds it, as the
// historical hardwired arrays did: node<i>-up/-down for NICs,
// <tier name><group>-up/-down for tier links, core for the core fabric.
func linkNames(n *Net, c *topology.Cluster) map[*link]string {
	names := make(map[*link]string, len(n.links))
	for i := range n.nodeUp {
		names[n.nodeUp[i]] = fmt.Sprintf("node%d-up", i)
		names[n.nodeDn[i]] = fmt.Sprintf("node%d-down", i)
	}
	for t, tier := range c.Spec().Tiers {
		for g := range n.tierUp[t] {
			names[n.tierUp[t][g]] = fmt.Sprintf("%s%d-up", tier.Name, g)
			names[n.tierDn[t][g]] = fmt.Sprintf("%s%d-down", tier.Name, g)
		}
	}
	names[n.core] = "core"
	return names
}

// debugLinks returns every link of n as "name capacity", in construction
// order.
func debugLinks(n *Net, c *topology.Cluster) []string {
	names := linkNames(n, c)
	out := make([]string, len(n.links))
	for i, l := range n.links {
		out[i] = fmt.Sprintf("%s %v", names[l], l.capacity)
	}
	return out
}

// TestLegacyLinkSetUnchanged pins the generic graph builder to the
// historical hardwired link arrays: a legacy two-level cluster must
// produce the very same links — names, capacities, construction order —
// that the pre-refactor netsim.New built. Legacy schedules depend on
// this order (it drives solver iteration), so the list is spelled out
// literally rather than derived.
func TestLegacyLinkSetUnchanged(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 5, Racks: 2, MapSlotsPerNode: 1})
	n, err := New(sim.New(), c, Config{NodeBps: 200 * Mbps, RackBps: 100 * Mbps, CoreBps: 400 * Mbps})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"node0-up 2.5e+07", "node0-down 2.5e+07",
		"node1-up 2.5e+07", "node1-down 2.5e+07",
		"node2-up 2.5e+07", "node2-down 2.5e+07",
		"node3-up 2.5e+07", "node3-down 2.5e+07",
		"node4-up 2.5e+07", "node4-down 2.5e+07",
		"rack0-up 1.25e+07", "rack0-down 1.25e+07",
		"rack1-up 1.25e+07", "rack1-down 1.25e+07",
		"core 5e+07",
	}
	got := debugLinks(n, c)
	if len(got) != len(want) {
		t.Fatalf("link count = %d, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("link %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Zero legacy capacities mean unlimited, exactly as before.
	n, err = New(sim.New(), c, Config{RackBps: 100 * Mbps})
	if err != nil {
		t.Fatal(err)
	}
	got = debugLinks(n, c)
	if got[0] != "node0-up +Inf" || got[14] != "core +Inf" || got[10] != "rack0-up 1.25e+07" {
		t.Fatalf("unlimited layers wrong: %v", got)
	}
}

// TestLegacyPathShape pins the two-level projection of pathFor: NICs
// only within a rack, NICs + rack up/down + core across racks.
func TestLegacyPathShape(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 2, MapSlotsPerNode: 1})
	n, err := New(sim.New(), c, Config{RackBps: 100 * Mbps})
	if err != nil {
		t.Fatal(err)
	}
	names := linkNames(n, c)
	if p := n.pathFor(2, 2); p != nil {
		t.Fatalf("node-local path = %v, want nil", pathNames(names, p))
	}
	if got, want := fmt.Sprint(pathNames(names, n.pathFor(0, 1))), "[node0-up node1-down]"; got != want {
		t.Fatalf("same-rack path = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(pathNames(names, n.pathFor(0, 4))), "[node0-up rack0-up core rack1-down node4-down]"; got != want {
		t.Fatalf("cross-rack path = %v, want %v", got, want)
	}
}

func pathNames(names map[*link]string, p []*link) []string {
	out := make([]string, len(p))
	for i, l := range p {
		out[i] = names[l]
	}
	return out
}

// TestEveryPairUniquePath checks the central path property on a
// multi-tier fabric: every node pair gets exactly one path, it is
// reproducible across independently built networks, its length equals
// the cluster's HopDistance, and it runs NIC-up ... NIC-down with each
// intermediate hop on the expected tier.
func TestEveryPairUniquePath(t *testing.T) {
	c := mustFatTreeCluster(t, topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3, NodeBps: 100 * Mbps, EdgeOversub: 4,
	})
	n1, err := New(sim.New(), c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := New(sim.New(), c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	names1, names2 := linkNames(n1, c), linkNames(n2, c)
	nics := make(map[*link]bool)
	for i := range n1.nodeUp {
		nics[n1.nodeUp[i]], nics[n1.nodeDn[i]] = true, true
	}
	for src := 0; src < c.NumNodes(); src++ {
		for dst := 0; dst < c.NumNodes(); dst++ {
			s, d := topology.NodeID(src), topology.NodeID(dst)
			p := n1.pathFor(s, d)
			if got, want := len(p), c.HopDistance(s, d); got != want {
				t.Fatalf("path %d->%d has %d links, HopDistance says %d", src, dst, got, want)
			}
			if src == dst {
				continue
			}
			if p[0] != n1.nodeUp[src] || p[len(p)-1] != n1.nodeDn[dst] {
				t.Fatalf("path %d->%d does not run NIC to NIC: %v", src, dst, pathNames(names1, p))
			}
			for _, l := range p[1 : len(p)-1] {
				if nics[l] {
					t.Fatalf("path %d->%d crosses a third NIC: %v", src, dst, pathNames(names1, p))
				}
			}
			// Deterministic: an independent build yields the same links.
			q := n2.pathFor(s, d)
			if fmt.Sprint(pathNames(names1, p)) != fmt.Sprint(pathNames(names2, q)) {
				t.Fatalf("path %d->%d differs across builds: %v vs %v",
					src, dst, pathNames(names1, p), pathNames(names2, q))
			}
		}
	}
}

// TestPathInterning pins the flow-path reuse satellite: repeat (src,
// dst) pairs share one immutable slice, so churn over known pairs
// allocates no path memory.
func TestPathInterning(t *testing.T) {
	c := mustFatTreeCluster(t, topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3, NodeBps: 100 * Mbps,
	})
	n, err := New(sim.New(), c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := n.pathFor(0, 7)
	p2 := n.pathFor(0, 7)
	if &p1[0] != &p2[0] || len(p1) != len(p2) {
		t.Fatal("repeat pair did not return the interned path")
	}
	f1 := startFlow(n, 0, 7, 1e6, nil)
	f2 := startFlow(n, 0, 7, 2e6, nil)
	if &f1.path[0] != &f2.path[0] {
		t.Fatal("flows between the same pair do not share the interned path")
	}
	if n.pathFor(7, 0)[0] == p1[0] {
		t.Fatal("reverse direction must be a distinct path")
	}
}

// TestMultiTierContention exercises oversubscribed fat-tree capacities
// end to end: a 4:1 edge tier halves a lone cross-edge flow relative to
// the NIC rate and halves it again when two flows share the uplink.
func TestMultiTierContention(t *testing.T) {
	// 2 pods x 2 edges x 2 nodes; NIC 100 Mbps, edge uplink 2*100/4 =
	// 50 Mbps, pod uplink 2*50 = 100 Mbps, core non-blocking.
	c := mustFatTreeCluster(t, topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 2, NodeBps: 100 * Mbps, EdgeOversub: 4,
	})
	const bytes = 50 * Mbps // one second at the edge-uplink rate

	run := func(flows [][2]topology.NodeID) map[int]float64 {
		eng := sim.New()
		n, err := New(eng, c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(map[int]float64)
		for _, fl := range flows {
			startFlow(n, fl[0], fl[1], bytes, func(f *Flow) { done[f.ID] = float64(eng.Now()) })
		}
		eng.Run()
		return done
	}

	// Same edge: NIC-limited, 0.5 s.
	if got := run([][2]topology.NodeID{{0, 1}})[0]; got != 0.5 {
		t.Fatalf("same-edge transfer took %v s, want 0.5", got)
	}
	// Cross edge within the pod: edge-uplink-limited, 1 s.
	if got := run([][2]topology.NodeID{{0, 2}})[0]; got != 1.0 {
		t.Fatalf("cross-edge transfer took %v s, want 1.0", got)
	}
	// Cross pod: pod uplink (100) is not the bottleneck; still 1 s.
	if got := run([][2]topology.NodeID{{0, 4}})[0]; got != 1.0 {
		t.Fatalf("cross-pod transfer took %v s, want 1.0", got)
	}
	// Two flows out of edge 0 share its 50 Mbps uplink: 2 s each.
	done := run([][2]topology.NodeID{{0, 2}, {1, 3}})
	if done[0] != 2.0 || done[1] != 2.0 {
		t.Fatalf("contending transfers took %v / %v s, want 2.0 each", done[0], done[1])
	}
}

// benchSpec builds the 10k-node fat tree used by the scale benchmarks:
// 10 pods x 10 edges x 100 nodes.
func benchFatTree10k(tb testing.TB) *topology.Cluster {
	tb.Helper()
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 10, EdgesPerPod: 10, NodesPerEdge: 100,
		NodeBps: Gbps, EdgeOversub: 4, PodOversub: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := topology.New(topology.Config{Spec: &spec, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkNew10k measures building the 10k-node network, which must stay
// a handful of slab allocations with no per-link formatting.
func BenchmarkNew10k(b *testing.B) {
	c := benchFatTree10k(b)
	eng := sim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(eng, c, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChurn10k runs one deterministic burst/cancel churn storm on the
// 10k-node fat tree.
func benchChurn10k(b *testing.B, c *topology.Cluster, nflows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		eng := sim.New()
		n, err := New(eng, c, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rng := uint64(0x2545F4914F6CDD1D)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		nodes := uint64(c.NumNodes())
		// created[i] is the i-th flow started until it finishes or is
		// cancelled; a victim that has finished is skipped.
		var created []*Flow
		arrived := func(f *Flow) { created[f.Tag] = nil }
		for i := 0; i < nflows; i += 10 {
			at := float64(i) * 0.002
			dst := topology.NodeID(next() % nodes)
			reqs := make([]FlowReq, 10)
			for j := range reqs {
				reqs[j] = FlowReq{
					Src:   topology.NodeID(next() % nodes),
					Dst:   dst,
					Bytes: float64(1+next()%64) * 1e6,
					Tag:   i + j,
					Done:  arrived,
				}
			}
			eng.ScheduleAt(at, func() { created = append(created, n.StartFlows(reqs)...) })
			if i/10%2 == 1 {
				victim := int(next() >> 33)
				eng.ScheduleAt(at+0.001, func() {
					if len(created) == 0 {
						return
					}
					if v := victim % len(created); created[v] != nil {
						n.Cancel(created[v])
						created[v] = nil
					}
				})
			}
		}
		eng.Run()
		if err := n.Drained(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn10k measures flow churn on the 10k-node fat tree; its
// bytes/op figure is dominated by per-flow state, not paths, because
// repeat (src, dst) pairs reuse interned path templates.
func BenchmarkChurn10k(b *testing.B) {
	c := benchFatTree10k(b)
	benchChurn10k(b, c, 5000)
}
