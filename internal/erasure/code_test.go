package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"degradedfirst/internal/gf256"
)

// verify reports whether a complete stripe is consistent: every parity
// shard equals the encoding of the native shards.
func (c *linear) verify(shards [][]byte) (bool, error) {
	if _, err := checkShards(shards, c.n, false); err != nil {
		return false, err
	}
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return false, err
	}
	for i, p := range parity {
		if !bytes.Equal(p, shards[c.k+i]) {
			return false, nil
		}
	}
	return true, nil
}

// cauchyRS is the (n, k) Reed-Solomon code whose parity rows are a Cauchy
// matrix under the identity (Cauchy Reed-Solomon, Bloemer et al. 1995):
// the decoder must handle any MDS generator, not just Vandermonde's.
func cauchyRS(n, k int) *linear {
	c := newLinear(k, gf256.Cauchy(n-k, k))
	return &c
}

var _codings = []struct {
	n, k int
}{
	{4, 2}, {6, 4}, {8, 6}, {9, 6}, {12, 9}, {12, 10}, {14, 10}, {16, 12}, {20, 15},
}

func randShards(rng *rand.Rand, k, size int) [][]byte {
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func TestNewRejectsBadParams(t *testing.T) {
	bad := []struct{ n, k int }{{2, 2}, {2, 3}, {0, 0}, {5, 0}, {5, -1}, {300, 10}}
	for _, p := range bad {
		if _, err := New(p.n, p.k); err == nil {
			t.Errorf("New(%d, %d) should fail", p.n, p.k)
		}
	}
}

func TestMustNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(2,2) did not panic")
		}
	}()
	MustNew(2, 2)
}

func TestCodeAccessors(t *testing.T) {
	c := MustNew(12, 10)
	if c.N() != 12 || c.K() != 10 {
		t.Fatalf("accessors wrong: n=%d k=%d", c.N(), c.K())
	}
}

func TestEncodeSystematic(t *testing.T) {
	// Top k rows are identity: parity must be deterministic and native
	// shards are stored verbatim in EncodeStripe.
	rng := rand.New(rand.NewSource(7))
	for _, p := range _codings {
		c := MustNew(p.n, p.k)
		native := randShards(rng, p.k, 64)
		stripe, err := c.EncodeStripe(native)
		if err != nil {
			t.Fatal(err)
		}
		if len(stripe) != p.n {
			t.Fatalf("(%d,%d): stripe has %d shards", p.n, p.k, len(stripe))
		}
		for i := 0; i < p.k; i++ {
			if !bytes.Equal(stripe[i], native[i]) {
				t.Fatalf("(%d,%d): native shard %d mutated", p.n, p.k, i)
			}
		}
		ok, err := c.verify(stripe)
		if err != nil || !ok {
			t.Fatalf("(%d,%d): Verify = %v, %v", p.n, p.k, ok, err)
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// For a small code, exhaustively erase every subset of size <= n-k and
	// verify reconstruction restores the stripe byte-for-byte.
	const n, k = 6, 4
	for _, code := range []struct {
		cons string
		c    *linear
	}{{"vandermonde", &MustNew(n, k).linear}, {"cauchy", cauchyRS(n, k)}} {
		cons, c := code.cons, code.c
		rng := rand.New(rand.NewSource(11))
		native := randShards(rng, k, 128)
		orig, err := c.EncodeStripe(native)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < (1 << n); mask++ {
			erased := 0
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					erased++
				}
			}
			if erased == 0 || erased > n-k {
				continue
			}
			work := make([][]byte, n)
			for i := range work {
				if mask&(1<<i) == 0 {
					work[i] = append([]byte(nil), orig[i]...)
				}
			}
			if err := c.Reconstruct(work); err != nil {
				t.Fatalf("%v mask %#x: %v", cons, mask, err)
			}
			for i := range work {
				if !bytes.Equal(work[i], orig[i]) {
					t.Fatalf("%v mask %#x: shard %d mismatch", cons, mask, i)
				}
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c := MustNew(4, 2)
	work := [][]byte{nil, nil, nil, {1, 2}}
	if err := c.Reconstruct(work); err == nil {
		t.Fatal("reconstruct with 1 < k shards must fail")
	}
}

func TestReconstructShapeErrors(t *testing.T) {
	c := MustNew(4, 2)
	if err := c.Reconstruct(make([][]byte, 3)); err == nil {
		t.Fatal("wrong shard count must fail")
	}
	work := [][]byte{{1, 2}, {1}, nil, nil}
	if err := c.Reconstruct(work); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestReconstructNoopWhenComplete(t *testing.T) {
	c := MustNew(4, 2)
	rng := rand.New(rand.NewSource(3))
	stripe, _ := c.EncodeStripe(randShards(rng, 2, 16))
	snapshot := make([][]byte, len(stripe))
	for i := range stripe {
		snapshot[i] = append([]byte(nil), stripe[i]...)
	}
	if err := c.Reconstruct(stripe); err != nil {
		t.Fatal(err)
	}
	for i := range stripe {
		if !bytes.Equal(stripe[i], snapshot[i]) {
			t.Fatal("complete stripe must not change")
		}
	}
}

func TestReconstructBlockDegradedRead(t *testing.T) {
	// Degraded read: reconstruct one lost block from k downloaded shards,
	// for every choice of lost block and many random source subsets.
	const n, k = 12, 10
	c := MustNew(n, k)
	rng := rand.New(rand.NewSource(13))
	stripe, err := c.EncodeStripe(randShards(rng, k, 256))
	if err != nil {
		t.Fatal(err)
	}
	for lost := 0; lost < n; lost++ {
		for trial := 0; trial < 5; trial++ {
			// Pick k random surviving shards.
			perm := rng.Perm(n)
			srcIdx := make([]int, 0, k)
			for _, i := range perm {
				if i != lost && len(srcIdx) < k {
					srcIdx = append(srcIdx, i)
				}
			}
			sources := make([][]byte, k)
			for i, idx := range srcIdx {
				sources[i] = stripe[idx]
			}
			got, err := c.ReconstructBlock(lost, srcIdx, sources)
			if err != nil {
				t.Fatalf("lost=%d trial=%d: %v", lost, trial, err)
			}
			if !bytes.Equal(got, stripe[lost]) {
				t.Fatalf("lost=%d trial=%d: reconstructed block mismatch", lost, trial)
			}
		}
	}
}

func TestReconstructBlockWithSelfInSources(t *testing.T) {
	// If the requested block happens to be among the sources (not actually
	// lost), it is returned as a copy.
	c := MustNew(4, 2)
	rng := rand.New(rand.NewSource(5))
	stripe, _ := c.EncodeStripe(randShards(rng, 2, 8))
	got, err := c.ReconstructBlock(1, []int{0, 1}, [][]byte{stripe[0], stripe[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stripe[1]) {
		t.Fatal("should return the block itself")
	}
	got[0] ^= 0xff
	if bytes.Equal(got, stripe[1]) {
		t.Fatal("must return a copy, not an alias")
	}
}

func TestReconstructBlockErrors(t *testing.T) {
	c := MustNew(4, 2)
	if _, err := c.ReconstructBlock(9, []int{0, 1}, [][]byte{{1}, {2}}); err == nil {
		t.Fatal("index out of range must fail")
	}
	if _, err := c.ReconstructBlock(0, []int{1}, [][]byte{{1}}); err == nil {
		t.Fatal("wrong source count must fail")
	}
	if _, err := c.ReconstructBlock(0, []int{1, 2}, [][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("source size mismatch must fail")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c := MustNew(9, 6)
	rng := rand.New(rand.NewSource(17))
	stripe, _ := c.EncodeStripe(randShards(rng, 6, 32))
	stripe[7][5] ^= 1
	ok, err := c.verify(stripe)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify must detect a corrupted parity byte")
	}
}

func TestEncodeErrors(t *testing.T) {
	c := MustNew(4, 2)
	if _, err := c.Encode([][]byte{{1, 2}}); err == nil {
		t.Fatal("wrong native count must fail")
	}
	if _, err := c.Encode([][]byte{{1, 2}, nil}); err == nil {
		t.Fatal("nil shard must fail")
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("mismatched sizes must fail")
	}
	if _, err := c.Encode([][]byte{{}, {}}); err == nil {
		t.Fatal("zero-length shards must fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: for random data, random (n,k) from the table, and a random
	// erasure pattern of <= n-k shards, Reconstruct restores the stripe.
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := _codings[rng.Intn(len(_codings))]
		c := &MustNew(p.n, p.k).linear
		if rng.Intn(2) == 1 {
			c = cauchyRS(p.n, p.k)
		}
		size := 1 + rng.Intn(300)
		orig, err := c.EncodeStripe(randShards(rng, p.k, size))
		if err != nil {
			return false
		}
		nErase := 1 + rng.Intn(p.n-p.k)
		work := make([][]byte, p.n)
		for i := range work {
			work[i] = append([]byte(nil), orig[i]...)
		}
		for _, i := range rng.Perm(p.n)[:nErase] {
			work[i] = nil
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
		t.Errorf("round-trip property failed: %v", err)
	}
}

func BenchmarkEncode12_10(b *testing.B) {
	c := MustNew(12, 10)
	rng := rand.New(rand.NewSource(1))
	native := randShards(rng, 10, 64*1024)
	b.SetBytes(int64(10 * 64 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(native); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructOne12_10(b *testing.B) {
	c := MustNew(12, 10)
	rng := rand.New(rand.NewSource(1))
	stripe, _ := c.EncodeStripe(randShards(rng, 10, 64*1024))
	srcIdx := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sources := make([][]byte, len(srcIdx))
	for i, idx := range srcIdx {
		sources[i] = stripe[idx]
	}
	b.SetBytes(int64(10 * 64 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReconstructBlock(0, srcIdx, sources); err != nil {
			b.Fatal(err)
		}
	}
}
