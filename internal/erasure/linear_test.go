package erasure

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"degradedfirst/internal/gf256"
)

// Reconstruct is the erasure tests' oracle: it fills in the missing shards
// of a stripe in place. shards must have length n; missing shards are nil
// entries. On success every entry of shards is non-nil and consistent with
// the code; when the present shards do not determine every missing one it
// returns ErrTooFewShards and leaves the stripe untouched.
func (c *linear) Reconstruct(shards [][]byte) error {
	size, err := checkShards(shards, c.n, true)
	if err != nil {
		return err
	}
	var present, missing []int
	sources := make([][]byte, 0, c.n)
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		} else {
			present = append(present, i)
			sources = append(sources, s)
		}
	}
	coeffs := make([][]byte, len(missing))
	for j, idx := range missing {
		if coeffs[j], err = c.coefficients(idx, present); err != nil {
			return err
		}
	}
	for j, idx := range missing {
		shards[idx] = make([]byte, size)
		combine(coeffs[j], sources, shards[idx])
	}
	return nil
}

// The oracle for the one decoder: sources determine a block exactly when
// adding the block's generator row to theirs does not raise the rank. rank
// row-reduces a copy of the rows, sharing nothing with linear.coefficients
// (which eliminates on columns of an augmented matrix).
func rank(t testing.TB, gen *gf256.Matrix, rows []int) int {
	t.Helper()
	m, err := gen.SubMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	r, cols := 0, len(gen.Row(0))
	for col := 0; col < cols && r < m.Rows(); col++ {
		p := r
		for p < m.Rows() && m.At(p, col) == 0 {
			p++
		}
		if p == m.Rows() {
			continue
		}
		for i := 0; i < cols; i++ {
			a, b := m.At(p, i), m.At(r, i)
			m.Set(p, i, b)
			m.Set(r, i, a)
		}
		inv := gf256.Inv(m.At(r, col))
		for q := r + 1; q < m.Rows(); q++ {
			f := gf256.Mul(m.At(q, col), inv)
			for i := 0; f != 0 && i < cols; i++ {
				m.Set(q, i, m.At(q, i)^gf256.Mul(f, m.At(r, i)))
			}
		}
		r++
	}
	return r
}

func determined(t testing.TB, gen *gf256.Matrix, idx int, src []int) bool {
	t.Helper()
	return rank(t, gen, append(append([]int(nil), src...), idx)) == rank(t, gen, src)
}

func pick(stripe [][]byte, idx []int) [][]byte {
	out := make([][]byte, len(idx))
	for i, j := range idx {
		out[i] = stripe[j]
	}
	return out
}

// checkDecode holds ReconstructBlock, CompareBlock, Determines and
// Reconstruct to the oracle for one (block, source list): they succeed
// exactly when the sources' generator rows span the block's, with the
// encoded bytes.
func checkDecode(t testing.TB, c *linear, stripe [][]byte, idx int, src []int) {
	t.Helper()
	want := determined(t, c.gen, idx, src)
	if got := c.Determines(idx, src); got != want {
		t.Fatalf("Determines(%d, %v) = %v, oracle says %v", idx, src, got, want)
	}
	got, err := c.ReconstructBlock(idx, src, pick(stripe, src))
	switch {
	case len(src) == 0:
		if !errors.Is(err, ErrShardCount) {
			t.Fatalf("ReconstructBlock(%d) from no sources: %v, want ErrShardCount", idx, err)
		}
	case want && (err != nil || !bytes.Equal(got, stripe[idx])):
		t.Fatalf("ReconstructBlock(%d, %v): err %v, bytes equal %v; the sources determine the block", idx, src, err, bytes.Equal(got, stripe[idx]))
	case !want && !errors.Is(err, ErrTooFewShards):
		t.Fatalf("ReconstructBlock(%d, %v) = %v, want ErrTooFewShards: the sources do not determine the block", idx, src, err)
	}

	// Compared in place: the same verdict, -1 against the stored block and
	// the first corrupted byte against a corrupted copy, the sources
	// untouched, and a block of the wrong length refused.
	size := len(stripe[0])
	orig := make([][]byte, len(stripe))
	for i, s := range stripe {
		orig[i] = bytes.Clone(s)
	}
	at, cmpErr := c.CompareBlock(stripe[idx], idx, src, pick(stripe, src))
	switch {
	case fmt.Sprint(cmpErr) != fmt.Sprint(err):
		t.Fatalf("CompareBlock(%d, %v) = %v, ReconstructBlock gave %v", idx, src, cmpErr, err)
	case err == nil && at != -1:
		t.Fatalf("CompareBlock(%d, %v) against the stored block = %d, want -1", idx, src, at)
	}
	if err == nil {
		bad := bytes.Clone(stripe[idx])
		wantAt := size - 1 - idx%size
		bad[wantAt] ^= 0x81
		if at, _ := c.CompareBlock(bad, idx, src, pick(stripe, src)); at != wantAt {
			t.Fatalf("CompareBlock(%d, %v) against a copy corrupted at byte %d = %d", idx, src, wantAt, at)
		}
	}
	for i := range stripe {
		if !bytes.Equal(stripe[i], orig[i]) {
			t.Fatalf("CompareBlock(%d, %v) modified shard %d", idx, src, i)
		}
	}
	if len(src) > 0 {
		for _, n := range []int{size - 1, size + 1} {
			if _, err := c.CompareBlock(make([]byte, n), idx, src, pick(stripe, src)); !errors.Is(err, ErrShardSizeMismatch) {
				t.Fatalf("CompareBlock with a %d-byte block for %d-byte shards = %v, want ErrShardSizeMismatch", n, size, err)
			}
		}
	}

	// Whole-stripe: keep exactly the sources, ask for everything else.
	work := make([][]byte, c.n)
	for _, s := range src {
		work[s] = stripe[s]
	}
	all := len(src) > 0
	for i := range work {
		all = all && (work[i] != nil || determined(t, c.gen, i, src))
	}
	before := append([][]byte(nil), work...)
	err = c.Reconstruct(work)
	if all {
		if err != nil {
			t.Fatalf("Reconstruct from %v: %v; every missing block is determined", src, err)
		}
		for i := range work {
			if !bytes.Equal(work[i], stripe[i]) {
				t.Fatalf("Reconstruct from %v: shard %d wrong", src, i)
			}
		}
		return
	}
	if !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("Reconstruct from %v = %v, want ErrTooFewShards", src, err)
	}
	for i := range work {
		if (work[i] == nil) != (before[i] == nil) {
			t.Fatalf("failed Reconstruct from %v filled shard %d", src, i)
		}
	}
}

func encodeFixed(t testing.TB, c *linear, size int, seed byte) [][]byte {
	t.Helper()
	data := make([][]byte, c.k)
	for i := range data {
		data[i] = make([]byte, size)
		fillShard(data[i], seed+byte(i))
	}
	stripe, err := c.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	return stripe
}

func TestLinearDecodeExhaustive(t *testing.T) {
	codes := map[string]*linear{
		"rs(6,4)/vandermonde": &MustNew(6, 4).linear,
		"rs(6,4)/cauchy":      cauchyRS(6, 4),
		"lrc(4,2,1)":          &mustNewLRC(4, 2, 1).linear,
		"lrc(6,2,2)":          &mustNewLRC(6, 2, 2).linear,
	}
	for name, c := range codes {
		t.Run(name, func(t *testing.T) {
			stripe := encodeFixed(t, c, 67, 3)
			for mask := 1; mask < 1<<c.n; mask++ { // bit i set: block i lost
				var src []int
				for i := 0; i < c.n; i++ {
					if mask&(1<<i) == 0 {
						src = append(src, i)
					}
				}
				for idx := 0; idx < c.n; idx++ {
					if mask&(1<<idx) != 0 {
						checkDecode(t, c, stripe, idx, src)
					}
				}
			}
		})
	}
}

// The two behaviours the single decoder changed on purpose.
func TestLinearDecodeBehaviourChanges(t *testing.T) {
	// RS takes any source set that determines the block, not exactly k...
	rs := MustNew(6, 4)
	stripe := encodeFixed(t, &rs.linear, 40, 1)
	for _, src := range [][]int{{1, 2, 3, 4, 5}, {5, 1, 4, 2}, {1, 1, 2, 3, 4}} {
		got, err := rs.ReconstructBlock(0, src, pick(stripe, src))
		if err != nil || !bytes.Equal(got, stripe[0]) {
			t.Fatalf("RS(6,4) block 0 from %v: %v", src, err)
		}
	}
	// ...while fewer than k distinct blocks still fail.
	for _, src := range [][]int{{1, 2, 3}, {1, 1, 2, 3}} {
		if _, err := rs.ReconstructBlock(0, src, pick(stripe, src)); !errors.Is(err, ErrTooFewShards) {
			t.Fatalf("RS(6,4) block 0 from %v = %v, want ErrTooFewShards", src, err)
		}
	}
	// LRC rebuilds a determined block although another missing block of
	// the stripe is lost for good: group 0 and its parity are gone (three
	// unknowns, two global equations), block 3's local group is whole.
	lrc := mustNewLRC(6, 2, 2)
	stripe = encodeFixed(t, &lrc.linear, 40, 2)
	src := []int{4, 5, 7, 8, 9}
	got, err := lrc.ReconstructBlock(3, src, pick(stripe, src))
	if err != nil || !bytes.Equal(got, stripe[3]) {
		t.Fatalf("LRC(6,2,2) block 3 from %v: %v", src, err)
	}
	if _, err := lrc.ReconstructBlock(0, src, pick(stripe, src)); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("LRC(6,2,2) block 0 from %v = %v, want ErrTooFewShards", src, err)
	}
}

// TestStripeBytesPinned pins the generators, hence every stored parity
// byte: SHA-256 of EncodeStripe on fixed input, recorded at the commit
// before the codecs were merged into linear.
func TestStripeBytesPinned(t *testing.T) {
	pins := []struct {
		code Coder
		want string
	}{
		{MustNew(12, 10), "2dfc34e78d4836eae074d45c9d507034bfb82a6790eaaac6349debd27a2a2518"},
		{cauchyRS(12, 10), "8b86020d400b2ded8c1937a084b75149efea2fca5d3f717fe6b670b92e219489"},
		{mustNewLRC(12, 2, 2), "2931380a3b34be75fc971dcb251135d033c946b99e5d5f278452397389f5e09d"},
	}
	for _, p := range pins {
		data := make([][]byte, p.code.K())
		for i := range data {
			data[i] = make([]byte, 1037)
			fillShard(data[i], byte(i+1))
		}
		stripe, err := p.code.EncodeStripe(data)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range stripe {
			h.Write(s)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.want {
			t.Errorf("%v: stripe bytes changed: sha256 %s, pinned %s", p.code, got, p.want)
		}
	}
}

// decodeWorld turns bytes into a decode problem — family, parameters,
// shard size, the block asked for and a source list (any order, repeats
// and the block itself allowed) — and holds the decoder to the oracle.
func decodeWorld(t testing.TB, in []byte) {
	t.Helper()
	at := func(i int) int {
		if i < len(in) {
			return int(in[i])
		}
		return 0
	}
	var c *linear
	switch at(0) % 3 {
	case 0:
		k := 1 + at(1)%10
		c = &MustNew(k+1+at(2)%4, k).linear
	case 1:
		k := 1 + at(1)%10
		c = cauchyRS(k+1+at(2)%4, k)
	default:
		l := 1 + at(1)%3
		c = &mustNewLRC(l*(1+at(2)%4), l, 1+at(3)%3).linear
	}
	stripe := encodeFixed(t, c, 1+at(4)%70, byte(at(5)))
	var src []int
	for i := 7; i < len(in) && len(src) < 2*c.n; i++ {
		src = append(src, int(in[i])%c.n)
	}
	checkDecode(t, c, stripe, at(6)%c.n, src)
}

var decodeSeeds = [][]byte{
	{},
	{0, 3, 1, 0, 9, 1, 0, 1, 2, 3, 4},        // RS(6,4) block 0 from four others
	{1, 9, 3, 0, 69, 2, 13, 0, 1, 2, 3},      // RS(14,10)/cauchy, too few
	{2, 1, 2, 1, 33, 3, 1, 0, 2, 6},          // LRC(6,2,2) local group of block 1
	{2, 1, 2, 1, 33, 3, 0, 3, 4, 5, 7, 8, 9}, // LRC(6,2,2) group 0 gone
	{2, 1, 4, 1, 5, 4, 13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9},   // LRC(10,2,2) global parity from the data
	{0, 3, 1, 0, 9, 1, 2, 2, 2, 5, 5, 0, 1, 1, 4, 3, 3, 3}, // repeats, self among sources
}

// TestLinearDecodeTrials is tier-1's driver for decodeWorld: the seed
// corpus and a seeded batch of random worlds. FuzzLinearDecode replays the
// same corpus and is what CI's fuzz smoke mutates.
func TestLinearDecodeTrials(t *testing.T) {
	for _, in := range decodeSeeds {
		decodeWorld(t, in)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		in := make([]byte, 7+rng.Intn(24))
		rng.Read(in)
		decodeWorld(t, in)
	}
}

func FuzzLinearDecode(f *testing.F) {
	for _, in := range decodeSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) { decodeWorld(t, in) })
}
