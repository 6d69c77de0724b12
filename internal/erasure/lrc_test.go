package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLRCValidation(t *testing.T) {
	bad := []struct{ k, l, g int }{
		{0, 1, 1}, {4, 0, 1}, {4, 2, 0}, {5, 2, 1}, {250, 5, 10},
	}
	for _, p := range bad {
		if _, err := NewLRC(p.k, p.l, p.g); err == nil {
			t.Errorf("NewLRC(%d,%d,%d) should fail", p.k, p.l, p.g)
		}
	}
}

// mustNewLRC is NewLRC for the tests' known-good parameters.
func mustNewLRC(k, l, g int) *LRC {
	c, err := NewLRC(k, l, g)
	if err != nil {
		panic(fmt.Sprintf("erasure: NewLRC(%d, %d, %d): %v", k, l, g, err))
	}
	return c
}

func TestLRCAccessors(t *testing.T) {
	c := mustNewLRC(12, 2, 2)
	if c.N() != 16 || c.K() != 12 {
		t.Fatalf("accessors wrong: n=%d k=%d", c.N(), c.K())
	}
}

func TestLRCGroupOf(t *testing.T) {
	c := mustNewLRC(12, 2, 2)
	if c.GroupOf(0) != 0 || c.GroupOf(5) != 0 || c.GroupOf(6) != 1 || c.GroupOf(11) != 1 {
		t.Fatal("data group mapping wrong")
	}
	if c.GroupOf(12) != 0 || c.GroupOf(13) != 1 {
		t.Fatal("local parity group mapping wrong")
	}
	if c.GroupOf(14) != -1 || c.GroupOf(15) != -1 || c.GroupOf(-1) != -1 || c.GroupOf(99) != -1 {
		t.Fatal("global parity / out of range must map to -1")
	}
}

func TestLRCLocalRepairGroup(t *testing.T) {
	c := mustNewLRC(6, 2, 2) // groups {0,1,2}+p6, {3,4,5}+p7; globals 8,9
	srcs, ok := c.LocalRepairGroup(1)
	if !ok {
		t.Fatal("data block must be locally repairable")
	}
	if !sameSet(srcs, []int{0, 2, 6}) {
		t.Fatalf("repair group of 1 = %v, want {0,2,6}", srcs)
	}
	// Local repair needs k/l = 3 blocks, far fewer than k = 6.
	if len(srcs) != 3 {
		t.Fatalf("local repair set size %d, want 3", len(srcs))
	}
	srcs, ok = c.LocalRepairGroup(7) // local parity of group 1
	if !ok || !sameSet(srcs, []int{3, 4, 5}) {
		t.Fatalf("repair group of parity 7 = %v ok=%v", srcs, ok)
	}
	if _, ok := c.LocalRepairGroup(8); ok {
		t.Fatal("global parity has no local group")
	}
}

func TestLRCEncodeVerify(t *testing.T) {
	c := mustNewLRC(6, 2, 2)
	rng := rand.New(rand.NewSource(1))
	data := randShards(rng, 6, 64)
	stripe, err := c.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripe) != 10 {
		t.Fatalf("stripe size %d", len(stripe))
	}
	ok, err := c.verify(stripe)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
	// Local parity really is the group XOR.
	for j := 0; j < 64; j++ {
		if stripe[6][j] != stripe[0][j]^stripe[1][j]^stripe[2][j] {
			t.Fatal("local parity 0 is not the group XOR")
		}
	}
	stripe[8][3] ^= 1
	ok, err = c.verify(stripe)
	if err != nil || ok {
		t.Fatal("Verify must catch global-parity corruption")
	}
}

func TestLRCEncodeErrors(t *testing.T) {
	c := mustNewLRC(4, 2, 1)
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Fatal("wrong data count must fail")
	}
	if _, err := c.Encode([][]byte{{1}, nil, {1}, {1}}); err == nil {
		t.Fatal("nil shard must fail")
	}
	if _, err := c.Encode([][]byte{{1}, {1, 2}, {1}, {1}}); err == nil {
		t.Fatal("ragged shards must fail")
	}
	if _, err := c.Encode([][]byte{{}, {}, {}, {}}); err == nil {
		t.Fatal("empty shards must fail")
	}
}

func TestLRCSingleFailureLocalRepair(t *testing.T) {
	c := mustNewLRC(12, 2, 2)
	rng := rand.New(rand.NewSource(2))
	stripe, err := c.EncodeStripe(randShards(rng, 12, 128))
	if err != nil {
		t.Fatal(err)
	}
	for lost := 0; lost < c.N(); lost++ {
		group, ok := c.LocalRepairGroup(lost)
		if !ok {
			continue
		}
		srcs := make([][]byte, len(group))
		for i, idx := range group {
			srcs[i] = stripe[idx]
		}
		got, err := c.ReconstructBlock(lost, group, srcs)
		if err != nil {
			t.Fatalf("lost %d: %v", lost, err)
		}
		if !bytes.Equal(got, stripe[lost]) {
			t.Fatalf("lost %d: local repair produced wrong bytes", lost)
		}
	}
}

func TestLRCReconstructBlockGlobalPath(t *testing.T) {
	// Repair a data block from a non-local source set (forces the general
	// decode path).
	c := mustNewLRC(6, 2, 2)
	rng := rand.New(rand.NewSource(3))
	stripe, _ := c.EncodeStripe(randShards(rng, 6, 32))
	srcIdx := []int{1, 2, 3, 4, 5, 8} // block 0 lost; use global parity 8
	srcs := make([][]byte, len(srcIdx))
	for i, idx := range srcIdx {
		srcs[i] = stripe[idx]
	}
	got, err := c.ReconstructBlock(0, srcIdx, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stripe[0]) {
		t.Fatal("global-path repair wrong")
	}
	// Self in sources returns a copy.
	got, err = c.ReconstructBlock(1, srcIdx, srcs)
	if err != nil || !bytes.Equal(got, stripe[1]) {
		t.Fatal("self-source repair wrong")
	}
	// Errors.
	if _, err := c.ReconstructBlock(-1, srcIdx, srcs); err == nil {
		t.Fatal("bad index must fail")
	}
	if _, err := c.ReconstructBlock(0, []int{1}, srcs); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
}

func TestLRCReconstructMultiFailure(t *testing.T) {
	// LRC(6,2,2) tolerates any pattern with enough independent equations:
	// certainly any single failure and the g+? patterns below.
	c := mustNewLRC(6, 2, 2)
	rng := rand.New(rand.NewSource(4))
	orig, _ := c.EncodeStripe(randShards(rng, 6, 64))
	recover := func(lost []int) error {
		work := make([][]byte, c.N())
		for i := range work {
			work[i] = append([]byte(nil), orig[i]...)
		}
		for _, idx := range lost {
			work[idx] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			return err
		}
		for i := range work {
			if !bytes.Equal(work[i], orig[i]) {
				t.Fatalf("lost %v: shard %d wrong after reconstruct", lost, i)
			}
		}
		return nil
	}
	recoverable := [][]int{
		{0}, {6}, {8},
		{0, 3},       // one data block per group: two local equations
		{0, 8},       // data + global parity
		{0, 1},       // two in one group: local eq + global eqs
		{0, 1, 3},    // three data blocks (2+1 across groups)
		{6, 7, 8, 9}, // all parities (re-encode)
		{0, 6},       // data + its own local parity -> needs globals
	}
	for _, lost := range recoverable {
		if err := recover(lost); err != nil {
			t.Errorf("pattern %v should be recoverable: %v", lost, err)
		}
	}
	// Unrecoverable: lose 3 data blocks of one group plus its parity ->
	// only 2 global equations for 3 unknowns.
	work := make([][]byte, c.N())
	for i := range work {
		work[i] = append([]byte(nil), orig[i]...)
	}
	for _, idx := range []int{0, 1, 2, 6} {
		work[idx] = nil
	}
	if err := c.Reconstruct(work); err == nil {
		t.Error("losing a whole group plus its parity must be unrecoverable with g=2... for 3 unknowns")
	}
}

func TestLRCReconstructShapeErrors(t *testing.T) {
	c := mustNewLRC(4, 2, 1)
	if err := c.Reconstruct(make([][]byte, 3)); err == nil {
		t.Fatal("wrong stripe width must fail")
	}
	if err := c.Reconstruct(make([][]byte, 7)); err == nil {
		t.Fatal("all-nil stripe must fail")
	}
	bad := make([][]byte, 7)
	bad[0] = []byte{1, 2}
	bad[1] = []byte{1}
	if err := c.Reconstruct(bad); err == nil {
		t.Fatal("ragged stripe must fail")
	}
}

func TestLRCRoundTripProperty(t *testing.T) {
	// Property: any single lost block is recoverable, and any pattern of
	// up to g random erasures plus intact local groups round-trips.
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := []struct{ k, l, g int }{{4, 2, 2}, {6, 2, 2}, {6, 3, 2}, {12, 2, 2}}
		p := params[rng.Intn(len(params))]
		c := mustNewLRC(p.k, p.l, p.g)
		orig, err := c.EncodeStripe(randShards(rng, p.k, 1+rng.Intn(100)))
		if err != nil {
			return false
		}
		lost := rng.Intn(c.N())
		work := make([][]byte, c.N())
		for i := range work {
			if i != lost {
				work[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := c.Reconstruct(work); err != nil {
			return false
		}
		for i := range work {
			if !bytes.Equal(work[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkLRCLocalRepair(b *testing.B) {
	c := mustNewLRC(12, 2, 2)
	rng := rand.New(rand.NewSource(1))
	stripe, _ := c.EncodeStripe(randShards(rng, 12, 64*1024))
	group, _ := c.LocalRepairGroup(0)
	srcs := make([][]byte, len(group))
	for i, idx := range group {
		srcs[i] = stripe[idx]
	}
	b.SetBytes(int64(len(group) * 64 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReconstructBlock(0, group, srcs); err != nil {
			b.Fatal(err)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}
