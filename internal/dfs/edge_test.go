package dfs

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// TestPreferSameRackTrimsToK: with more same-rack survivors than the
// code's k, a same-rack read takes the first k of them and nothing else.
func TestPreferSameRackTrimsToK(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 1, MapSlotsPerNode: 1})
	p, err := placement.RoundRobin{}.Place(c, 1, 6, 2, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Index: 0}
	c.FailNode(p.Holder(b))
	srcs, err := pickDegradedSources(c, p, b, p.Holder(erasure.BlockID{Index: 3}), PreferSameRack, stats.NewRNG(2))
	if err != nil || len(srcs) != 2 || srcs[0].Index != 1 || srcs[1].Index != 2 {
		t.Fatalf("sources %+v (%v): want blocks 1 and 2, the first two survivors", srcs, err)
	}
}

// TestNodeContentsSkipsMetadataOnlyFiles: a node ships only blocks that
// have bytes.
func TestNodeContentsSkipsMetadataOnlyFiles(t *testing.T) {
	fs := testFS(t)
	if _, err := fs.CreateMeta("meta", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("data", makeData(4*64)); err != nil {
		t.Fatal(err)
	}
	for i := range 12 {
		for _, sb := range fs.NodeContents(topology.NodeID(i)) {
			if sb.File != "data" || sb.Data == nil {
				t.Fatalf("node %d ships %s %v with %d bytes", i, sb.File, sb.Block, len(sb.Data))
			}
		}
	}
}

// TestStoreErrors: every DFS call that cannot be served says why.
func TestStoreErrors(t *testing.T) {
	// A rack-constrained (6,4) placement needs more than one rack.
	tight, err := New(topology.MustNew(topology.Config{Nodes: 6, Racks: 1, MapSlotsPerNode: 1}), erasure.MustNew(6, 4), 64,
		placement.RackConstrainedRandom{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tight.Write("f", makeData(64))
	wantErr(t, "Write on too few racks", err, `dfs: placing "f"`)
	_, err = tight.CreateMeta("f", 4)
	wantErr(t, "CreateMeta on too few racks", err, `dfs: placing "f"`)

	fs := testFS(t)
	f, err := fs.Write("f", makeData(8*64))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadBlock("nope", erasure.BlockID{})
	wantErr(t, "ReadBlock of an unknown file", err, `"nope"`)
	_, err = fs.DecodeFrom("nope", erasure.BlockID{}, nil)
	wantErr(t, "DecodeFrom of an unknown file", err, `"nope"`)
	twice := []repair.Source{{Index: 1}, {Index: 1}, {Index: 2}, {Index: 3}}
	_, err = fs.DecodeFrom("f", erasure.BlockID{}, twice)
	wantErr(t, "DecodeFrom a repeated source", err, "dfs: reconstructing")
	_, err = fs.PlanStripeRepair(repair.Key{File: "nope"})
	wantErr(t, "PlanStripeRepair of an unknown file", err, `"nope"`)
	_, err = fs.PlanStripeRepair(repair.Key{File: "f", Stripe: 9})
	wantErr(t, "PlanStripeRepair past the last stripe", err, `file "f" has no stripe 9`)

	b := erasure.BlockID{Stripe: 1, Index: 0}
	fs.Cluster().FailNode(f.Placement.Holder(b))
	holders := f.Placement.StripeHolders(1)
	var dst topology.NodeID = -1
	for i := range 12 {
		if id := topology.NodeID(i); fs.Cluster().Alive(id) && !slices.Contains(holders, id) {
			dst = id
			break
		}
	}
	_, err = fs.RepairBlock("f", b, dst, twice)
	wantErr(t, "RepairBlock from a repeated source", err, "dfs: repairing")

	// Every node that could host stripe 1's rebuilt block fails: the
	// stripe plans as unrepairable, not as an error, and stays degraded.
	for i := range 12 {
		if id := topology.NodeID(i); !slices.Contains(holders, id) {
			fs.Cluster().FailNode(id)
		}
	}
	key := repair.Key{File: "f", Stripe: 1}
	plans, err := fs.LostBlocks(nil)
	i := slices.IndexFunc(plans, func(p repair.StripePlan) bool { return p.Key == key })
	one, perr := fs.PlanStripeRepair(key)
	want := repair.StripePlan{Key: key, Lost: 1, Unrepairable: true}
	if err != nil || perr != nil || i < 0 || !reflect.DeepEqual(plans[i], want) || !reflect.DeepEqual(one, want) {
		t.Errorf("LostBlocks with nowhere to rebuild: %+v (%v), plan %+v (%v); want stripe 1 flagged %+v", plans, err, one, perr, want)
	}
}

func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %v, want one containing %q", what, err, want)
	}
}
