package dfs

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// mustLRC builds an LRC code for the test's known-good parameters.
func mustLRC(t testing.TB, k, l, g int) *erasure.LRC {
	t.Helper()
	c, err := erasure.NewLRC(k, l, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testCluster() *topology.Cluster {
	return topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
}

func testFS(t *testing.T) *FS {
	t.Helper()
	fs, err := New(testCluster(), erasure.MustNew(6, 4), 64, nil, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// crossRackSources counts how many of the sources are outside the reader's
// rack — the transfers that consume rack up/down bandwidth.
func crossRackSources(c *topology.Cluster, reader topology.NodeID, sources []repair.Source) int {
	cnt := 0
	for _, s := range sources {
		if c.RackOf(s.Node) != c.RackOf(reader) {
			cnt++
		}
	}
	return cnt
}

func makeData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	return data
}

func TestNewValidation(t *testing.T) {
	c := testCluster()
	code := erasure.MustNew(6, 4)
	if _, err := New(nil, code, 64, nil, nil); err == nil {
		t.Fatal("nil cluster must fail")
	}
	if _, err := New(c, nil, 64, nil, nil); err == nil {
		t.Fatal("nil code must fail")
	}
	if _, err := New(c, code, 0, nil, nil); err == nil {
		t.Fatal("zero block size must fail")
	}
	fs, err := New(c, code, 64, nil, nil) // nil policy and rng default
	if err != nil || fs.Code() != code || fs.BlockSize() != 64 || fs.Cluster() != c {
		t.Fatalf("defaults wrong: %v", err)
	}
}

func TestWriteAndReadBack(t *testing.T) {
	fs := testFS(t)
	data := makeData(1000)
	f, err := fs.Write("input.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasData() || f.Size != 1000 {
		t.Fatal("file metadata wrong")
	}
	// 1000 bytes / 64 per block = 16 blocks -> 4 stripes of k=4.
	if f.NumStripes() != 4 {
		t.Fatalf("stripes = %d, want 4", f.NumStripes())
	}
	if len(f.NativeBlocks()) != 16 {
		t.Fatalf("native blocks = %d", len(f.NativeBlocks()))
	}
	var back []byte
	for s := range f.NumStripes() {
		for i := range 4 {
			back = append(back, f.blocks[s][i]...)
		}
	}
	if !bytes.Equal(back[:f.Size], data) {
		t.Fatal("file round trip mismatch")
	}
	if len(fs.names) != 1 || fs.names[0] != "input.txt" {
		t.Fatalf("file names = %v", fs.names)
	}
}

func TestWriteErrors(t *testing.T) {
	fs := testFS(t)
	if _, err := fs.Write("a", nil); err == nil {
		t.Fatal("empty file must fail")
	}
	if _, err := fs.Write("a", makeData(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("a", makeData(10)); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := fs.File("missing"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestReadBlock(t *testing.T) {
	fs := testFS(t)
	data := makeData(64 * 4) // exactly one stripe
	if _, err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 0, Index: 1}
	got, err := fs.ReadBlock("f", b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[64:128]) {
		t.Fatal("block contents wrong")
	}
	// Fail the holder: read must report ErrBlockLost, naming the block.
	f, _ := fs.File("f")
	fs.Cluster().FailNode(f.Placement.Holder(b))
	if _, err := fs.ReadBlock("f", b); !errors.Is(err, ErrBlockLost) || !strings.Contains(err.Error(), "blk(s0,i1)") {
		t.Fatalf("lost block read: %v, want ErrBlockLost naming blk(s0,i1)", err)
	}
}

func TestDegradedReadReconstructsForReal(t *testing.T) {
	fs := testFS(t)
	data := makeData(64 * 8) // two stripes
	if _, err := fs.Write("f", data); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.File("f")
	b := erasure.BlockID{Stripe: 1, Index: 2}
	holder := f.Placement.Holder(b)
	fs.Cluster().FailNode(holder)
	rng := stats.NewRNG(9)
	for _, strategy := range []SelectionStrategy{RandomK, PreferSameRack} {
		got, sources, err := fs.DegradedRead("f", b, 0, strategy, rng)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		want := data[(1*4+2)*64 : (1*4+3)*64]
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: reconstructed bytes wrong", strategy)
		}
		if len(sources) != 4 {
			t.Fatalf("%v: %d sources, want k=4", strategy, len(sources))
		}
		for _, s := range sources {
			if s.Node == holder {
				t.Fatalf("%v: degraded read touched the failed holder", strategy)
			}
			if s.Index == b.Index {
				t.Fatalf("%v: degraded read selected the lost block", strategy)
			}
		}
	}
}

// pickDegradedSources selects the k surviving blocks of lost block b's
// stripe that a degraded read on node reader downloads, never b itself.
func pickDegradedSources(c *topology.Cluster, p *placement.Placement, b erasure.BlockID,
	reader topology.NodeID, strategy SelectionStrategy, rng *stats.RNG) ([]repair.Source, error) {
	return pickK(c, p, b, survivorsOf(c, p, b, nil, nil), reader, strategy, rng, nil)
}

func TestPickDegradedSourcesRandomK(t *testing.T) {
	c := testCluster()
	p, err := placement.RackConstrainedRandom{}.Place(c, 10, 6, 4, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 0, Index: 0}
	c.FailNode(p.Holder(b))
	rng := stats.NewRNG(3)
	seen := map[int]bool{}
	for trial := 0; trial < 30; trial++ {
		srcs, err := pickDegradedSources(c, p, b, 0, RandomK, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(srcs) != 4 {
			t.Fatalf("got %d sources", len(srcs))
		}
		for _, s := range srcs {
			if !c.Alive(s.Node) || s.Index == 0 {
				t.Fatalf("bad source %+v", s)
			}
			seen[s.Index] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("random selection never varied: %v", seen)
	}
}

func TestPickDegradedSourcesPreferSameRack(t *testing.T) {
	c := testCluster()
	p, err := placement.RackConstrainedRandom{}.Place(c, 10, 6, 4, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 0, Index: 0}
	holder := p.Holder(b)
	c.FailNode(holder)
	rng := stats.NewRNG(5)
	reader := topology.NodeID(1)
	if reader == holder {
		reader = 2
	}
	srcsNear, err := pickDegradedSources(c, p, b, reader, PreferSameRack, rng)
	if err != nil {
		t.Fatal(err)
	}
	srcsRand, err := pickDegradedSources(c, p, b, reader, RandomK, rng)
	if err != nil {
		t.Fatal(err)
	}
	if crossRackSources(c, reader, srcsNear) > crossRackSources(c, reader, srcsRand) {
		t.Fatalf("PreferSameRack picked more cross-rack sources (%d) than RandomK (%d)",
			crossRackSources(c, reader, srcsNear), crossRackSources(c, reader, srcsRand))
	}
}

func TestPickDegradedSourcesErrors(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 3, MapSlotsPerNode: 1})
	p, err := placement.RackConstrainedRandom{}.Place(c, 2, 6, 4, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// Fail 3 nodes: stripes lose 3 of 6 blocks, leaving 3 < k=4 survivors.
	c.FailNode(0)
	c.FailNode(1)
	c.FailNode(2)
	b := erasure.BlockID{Stripe: 0, Index: 0}
	if _, err := pickDegradedSources(c, p, b, 3, RandomK, stats.NewRNG(7)); err == nil {
		t.Fatal("too few survivors must fail")
	}
	c2 := testCluster()
	p2, _ := placement.RackConstrainedRandom{}.Place(c2, 2, 6, 4, stats.NewRNG(8))
	if _, err := pickDegradedSources(c2, p2, b, 0, SelectionStrategy(42), stats.NewRNG(9)); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestCreateMeta(t *testing.T) {
	fs := testFS(t)
	f, err := fs.CreateMeta("meta", 17)
	if err != nil {
		t.Fatal(err)
	}
	if f.HasData() {
		t.Fatal("meta file must not have data")
	}
	// ceil(17/4) = 5 stripes.
	if f.NumStripes() != 5 {
		t.Fatalf("stripes = %d", f.NumStripes())
	}
	if _, err := fs.ReadBlock("meta", erasure.BlockID{}); err == nil {
		t.Fatal("reading a metadata-only file must fail")
	}
	if _, _, err := fs.DegradedRead("meta", erasure.BlockID{}, 0, RandomK, stats.NewRNG(1)); err == nil {
		t.Fatal("degraded read on metadata-only file must fail")
	}
	if _, err := fs.CreateMeta("meta", 3); err == nil {
		t.Fatal("duplicate meta must fail")
	}
	if _, err := fs.CreateMeta("meta2", 0); err == nil {
		t.Fatal("zero blocks must fail")
	}
}

func TestSelectionStrategyString(t *testing.T) {
	for _, s := range []SelectionStrategy{RandomK, PreferSameRack, SelectionStrategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
}

func TestDegradedReadRoundTripProperty(t *testing.T) {
	// Property: for random file sizes and any single lost native block,
	// the degraded read reproduces the original block bytes exactly.
	f := func(seed int64, sizeSeed uint16) bool {
		size := 100 + int(sizeSeed)%5000
		rng := stats.NewRNG(seed)
		c := testCluster()
		fs, err := New(c, erasure.MustNew(6, 4), 128, nil, rng)
		if err != nil {
			return false
		}
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(int(seed) + i)
		}
		file, err := fs.Write("f", data)
		if err != nil {
			return false
		}
		natives := file.NativeBlocks()
		b := natives[rng.Intn(len(natives))]
		holder := file.Placement.Holder(b)
		c.FailNode(holder)
		got, _, err := fs.DegradedRead("f", b, 0, RandomK, rng)
		if err != nil {
			return false
		}
		want, err := fs.ReadBlockUnsafe("f", b)
		if err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPickRepairSourcesLRCLocalGroup(t *testing.T) {
	// With an LRC code and the whole local group alive, PickRepairSources
	// returns exactly the group (k/l+1 blocks), not k survivors.
	c := topology.MustNew(topology.Config{Nodes: 14, Racks: 2, MapSlotsPerNode: 1})
	code := mustLRC(t, 10, 2, 2)
	fs, err := New(c, code, 64, placement.RoundRobin{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Write("f", makeData(64*10))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 0, Index: 0}
	holder := f.Placement.Holder(b)
	c.FailNode(holder)
	srcs, err := PickRepairSources(c, code, f.Placement, b, 0, RandomK, stats.NewRNG(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	group, _ := code.LocalRepairGroup(0)
	if len(srcs) != len(group) {
		t.Fatalf("got %d sources, want local group of %d", len(srcs), len(group))
	}
	// Degraded read through the FS actually uses the group and returns
	// the right bytes.
	got, sources, err := fs.DegradedRead("f", b, 0, RandomK, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != len(group) {
		t.Fatalf("DegradedRead used %d sources, want %d", len(sources), len(group))
	}
	want, _ := fs.ReadBlockUnsafe("f", b)
	if !bytes.Equal(got, want) {
		t.Fatal("LRC degraded read returned wrong bytes")
	}
}

func TestPickRepairSourcesFallsBackWhenGroupBroken(t *testing.T) {
	// If a group member is also failed, an LRC reads every survivor — it
	// is not MDS, so k of them need not determine the block — without
	// drawing from the RNG; an RS code falls back to k-of-n.
	c := topology.MustNew(topology.Config{Nodes: 14, Racks: 2, MapSlotsPerNode: 1})
	code := mustLRC(t, 10, 2, 2)
	fs, err := New(c, code, 64, placement.RoundRobin{}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Write("f", makeData(64*10))
	b := erasure.BlockID{Stripe: 0, Index: 0}
	c.FailNode(f.Placement.Holder(b))
	// Fail another member of block 0's local group.
	group, _ := code.LocalRepairGroup(0)
	c.FailNode(f.Placement.Holder(erasure.BlockID{Stripe: 0, Index: group[0]}))
	rng := stats.NewRNG(5)
	srcs, err := PickRepairSources(c, code, f.Placement, b, 0, RandomK, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != code.N()-2 {
		t.Fatalf("fallback should read all %d survivors, got %d", code.N()-2, len(srcs))
	}
	for i, s := range srcs {
		if s.Index == b.Index || s.Index == group[0] || !c.Alive(s.Node) || (i > 0 && s.Index <= srcs[i-1].Index) {
			t.Fatalf("fallback sources are not the survivors in index order: %v", srcs)
		}
	}
	if rng.Intn(1<<30) != stats.NewRNG(5).Intn(1<<30) {
		t.Fatal("every-survivor fallback drew from the RNG")
	}
	// And RS codes (no LocalRepairer) always use the fallback.
	c2 := testCluster()
	rs := erasure.MustNew(6, 4)
	p2, _ := placement.RoundRobin{}.Place(c2, 2, 6, 4, stats.NewRNG(6))
	b2 := erasure.BlockID{Stripe: 0, Index: 1}
	c2.FailNode(p2.Holder(b2))
	srcs2, err := PickRepairSources(c2, rs, p2, b2, 0, RandomK, stats.NewRNG(7), nil)
	if err != nil || len(srcs2) != 4 {
		t.Fatalf("RS fallback: %v %v", srcs2, err)
	}
}

// TestPickRepairSourcesPlansInLentStorage: PickRepairSources appends behind
// what the caller's slice holds and picks what a fresh plan picks from the
// same draws, for k-of-n picks of either strategy and a locality-aware
// code's local group, and a plan into a slice with room allocates nothing.
func TestPickRepairSourcesPlansInLentStorage(t *testing.T) {
	rsCluster := testCluster()
	rsPlace, err := placement.RoundRobin{}.Place(rsCluster, 2, 6, 4, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	rsBlock := erasure.BlockID{Stripe: 1, Index: 2}
	rsCluster.FailNode(rsPlace.Holder(rsBlock))
	lrcCluster := topology.MustNew(topology.Config{Nodes: 14, Racks: 2, MapSlotsPerNode: 1})
	lrc := mustLRC(t, 10, 2, 2)
	lrcPlace, err := placement.RoundRobin{}.Place(lrcCluster, 1, lrc.N(), lrc.K(), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	lrcBlock := erasure.BlockID{Stripe: 0, Index: 0}
	lrcCluster.FailNode(lrcPlace.Holder(lrcBlock))
	for _, tc := range []struct {
		name     string
		c        *topology.Cluster
		code     erasure.Coder
		p        *placement.Placement
		b        erasure.BlockID
		strategy SelectionStrategy
	}{
		{"RS random-k", rsCluster, erasure.MustNew(6, 4), rsPlace, rsBlock, RandomK},
		{"RS prefer-same-rack", rsCluster, erasure.MustNew(6, 4), rsPlace, rsBlock, PreferSameRack},
		{"LRC local group", lrcCluster, lrc, lrcPlace, lrcBlock, RandomK},
	} {
		lent := make([]repair.Source, 1, 16)
		lent[0] = repair.Source{Node: -1, Index: -1}
		for seed := int64(0); seed < 20; seed++ {
			want, err := PickRepairSources(tc.c, tc.code, tc.p, tc.b, 0, tc.strategy, stats.NewRNG(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PickRepairSources(tc.c, tc.code, tc.p, tc.b, 0, tc.strategy, stats.NewRNG(seed), lent[:1])
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != lent[0] || !slices.Equal(got[1:], want) {
				t.Fatalf("%s, seed %d: picked %v behind %v, a fresh plan picks %v", tc.name, seed, got[1:], got[0], want)
			}
		}
		rng := stats.NewRNG(1)
		if n := testing.AllocsPerRun(50, func() {
			lent, _ = PickRepairSources(tc.c, tc.code, tc.p, tc.b, 0, tc.strategy, rng, lent[:1])
		}); n != 0 {
			t.Errorf("%s: %.1f allocations per plan into a slice with room", tc.name, n)
		}
	}
}

func TestDegradedReadLRCBrokenGroup(t *testing.T) {
	// Two failures in local group 0 of LRC(10,2,2): the 12 survivors
	// determine block 0, but a random 10 of them often do not. The read
	// must succeed with the right bytes for every reader seed.
	c := topology.MustNew(topology.Config{Nodes: 14, Racks: 2, MapSlotsPerNode: 1})
	code := mustLRC(t, 10, 2, 2)
	fs, err := New(c, code, 64, placement.RoundRobin{}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Write("f", makeData(64*10))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 0, Index: 0}
	c.FailNode(f.Placement.Holder(b))
	c.FailNode(f.Placement.Holder(erasure.BlockID{Stripe: 0, Index: 1}))
	want, err := fs.ReadBlockUnsafe("f", b)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 200; seed++ {
		got, srcs, err := fs.DegradedRead("f", b, 2, RandomK, stats.NewRNG(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(srcs) != code.N()-2 || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %d sources, bytes equal %v", seed, len(srcs), bytes.Equal(got, want))
		}
	}
}
