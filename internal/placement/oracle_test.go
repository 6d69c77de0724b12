package placement

import (
	"fmt"
	"slices"
	"testing"

	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// scanPlace is RackConstrainedRandom.Place as it was before the load-level
// bitsets: every block scans every node, keeping the least-loaded valid
// ones in node-ID order, and takes candidate rng.Intn(len). It is the
// oracle the indexed Place must match holder for holder and draw for draw.
func scanPlace(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error) {
	if err := checkParams(c, n, k, numStripes); err != nil {
		return nil, err
	}
	p := newPlacement(n, k, numStripes)
	nodes := c.Nodes()
	load := make([]int, len(nodes))
	stamp := make([]int, len(nodes)) // stamp[id] == s+1: node id already holds a block of stripe s
	perRack := make([]int, c.NumRacks())
	cands := make([]topology.NodeID, 0, len(nodes))
	for s := 0; s < numStripes; s++ {
		clear(perRack)
		for i := 0; i < n; i++ {
			cands = cands[:0]
			minLoad := int(^uint(0) >> 1)
			for _, node := range nodes {
				if node.Failed() || stamp[node.ID] == s+1 || perRack[node.Rack] >= n-k {
					continue
				}
				switch l := load[node.ID]; {
				case l < minLoad:
					minLoad = l
					cands = append(cands[:0], node.ID)
				case l == minLoad:
					cands = append(cands, node.ID)
				}
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("placement: no valid node for stripe %d block %d (cluster too small for (%d,%d))", s, i, n, k)
			}
			id := cands[rng.Intn(len(cands))]
			p.assign(s, i, id)
			stamp[id] = s + 1
			perRack[c.RackOf(id)]++
			load[id]++
		}
	}
	return p, nil
}

// placeWorld is one random placement problem: a cluster, a code and the
// stripe counts of files placed back to back from one RNG.
type placeWorld struct {
	c     *topology.Cluster
	n, k  int
	files []int
	seed  int64
}

func (w placeWorld) String() string {
	return fmt.Sprintf("%d nodes in %d racks (%d tiers, %d failed), (%d,%d), files %v, seed %d",
		w.c.NumNodes(), w.c.NumRacks(), w.c.NumTiers(), len(w.c.FailedNodes()), w.n, w.k, w.files, w.seed)
}

// randomPlaceWorld draws a world from rng: a two-level cluster with uneven
// rack sizes or a fat tree, some failed nodes, and an (n, k) from n-k = 1
// up to n close to the alive node count.
func randomPlaceWorld(rng *stats.RNG) placeWorld {
	var c *topology.Cluster
	if rng.Intn(3) == 0 {
		spec, err := topology.FatTree(topology.FatTreeConfig{
			Pods: 1 + rng.Intn(4), EdgesPerPod: 1 + rng.Intn(4), NodesPerEdge: 1 + rng.Intn(6), NodeBps: 1,
		})
		if err != nil {
			panic(err)
		}
		c = topology.MustNew(topology.Config{Spec: &spec, MapSlotsPerNode: 1})
	} else {
		racks := 1 + rng.Intn(12)
		sizes := make([]int, racks)
		nodes := 0
		for r := range sizes {
			sizes[r] = 1 + rng.Intn(12)
			nodes += sizes[r]
		}
		c = topology.MustNew(topology.Config{Nodes: nodes, Racks: racks, RackSizes: sizes, MapSlotsPerNode: 1})
	}
	for range rng.Intn(1 + c.NumNodes()/4) {
		c.FailNode(topology.NodeID(rng.Intn(c.NumNodes())))
	}
	alive := len(c.AliveNodes())
	w := placeWorld{c: c, seed: int64(rng.Intn(1 << 30))}
	w.n = 2 + rng.Intn(max(alive-1, 1))
	if rng.Intn(2) == 0 {
		w.n = max(2, alive-rng.Intn(3)) // n close to the node count
	}
	w.k = w.n - 1 - rng.Intn(w.n-1) // n-k from 1 to n-1
	if rng.Intn(3) == 0 {
		w.k = w.n - 1
	}
	for range 1 + rng.Intn(3) {
		w.files = append(w.files, rng.Intn(40))
	}
	return w
}

// checkPlaceEquivalence places w's files with both Place and scanPlace,
// each from its own RNG of w's seed, and fails unless every file gets the
// same holders (or the same error) and the RNGs end at the same draw.
func checkPlaceEquivalence(t *testing.T, w placeWorld) {
	t.Helper()
	got, want := stats.NewRNG(w.seed), stats.NewRNG(w.seed)
	for f, stripes := range w.files {
		p, err := RackConstrainedRandom{}.Place(w.c, stripes, w.n, w.k, got)
		q, qerr := scanPlace(w.c, stripes, w.n, w.k, want)
		if fmt.Sprint(err) != fmt.Sprint(qerr) {
			t.Fatalf("%v: file %d: error %v, oracle %v", w, f, err, qerr)
		}
		if err != nil {
			break // the RNGs stopped at the same block; check them below
		}
		if !slices.Equal(p.holders, q.holders) {
			t.Fatalf("%v: file %d: holders differ from the oracle's\n got %v\nwant %v", w, f, p.holders, q.holders)
		}
	}
	if a, b := got.Intn(1<<30), want.Intn(1<<30); a != b {
		t.Fatalf("%v: next draw %d, oracle %d", w, a, b)
	}
}

// TestPlaceMatchesScanOracle holds the indexed Place to the every-node
// scan on seeded random worlds: uneven two-level racks, fat trees, failed
// nodes, n-k = 1 and n near the node count, several files back to back.
func TestPlaceMatchesScanOracle(t *testing.T) {
	rng := stats.NewRNG(52)
	failures := 0
	for range 400 {
		w := randomPlaceWorld(rng)
		checkPlaceEquivalence(t, w)
		if _, err := scanPlace(w.c, 1, w.n, w.k, stats.NewRNG(w.seed)); err != nil {
			failures++
		}
	}
	if failures == 0 || failures == 400 {
		t.Fatalf("%d of 400 worlds cannot place a stripe: the worlds miss one of the two outcomes", failures)
	}
}

// FuzzPlaceEquivalence holds the indexed Place to the every-node scan on
// worlds drawn from the fuzzed seed.
func FuzzPlaceEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 52, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkPlaceEquivalence(t, randomPlaceWorld(stats.NewRNG(seed)))
	})
}

// BenchmarkPlace times one file of 36 native blocks per node placed by the
// indexed Place and by the every-node scan it replaced: the simulator's
// default (20,15) on 10-node racks from 40 to 3 000 nodes, and (8,6) on
// four racks at 16 nodes, too few for n = 20.
func BenchmarkPlace(b *testing.B) {
	for _, w := range []struct{ nodes, racks, n, k int }{
		{16, 4, 8, 6}, {40, 4, 20, 15}, {64, 6, 20, 15}, {400, 40, 20, 15}, {3000, 300, 20, 15},
	} {
		c := topology.MustNew(topology.Config{Nodes: w.nodes, Racks: w.racks, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
		stripes := w.nodes * 36 / w.k
		for _, impl := range []struct {
			name  string
			place func(*topology.Cluster, int, int, int, *stats.RNG) (*Placement, error)
		}{{"indexed", RackConstrainedRandom{}.Place}, {"scan", scanPlace}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", w.nodes, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.place(c, stripes, w.n, w.k, stats.NewRNG(1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
