package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// splitStripes divides a byte stream into stripes of k native blocks of
// blockSize bytes each, zero-padding the tail block of the final stripe.
// It returns the native blocks grouped per stripe; full blocks are views of
// data, as SplitStripe describes. It is the whole-stream reference the
// stripe-by-stripe SplitStripe is tested against.
func splitStripes(data []byte, k, blockSize int) ([][][]byte, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrInvalidParams, k)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("erasure: blockSize must be positive, got %d", blockSize)
	}
	if len(data) == 0 {
		return nil, nil
	}
	stripes := make([][][]byte, NumStripes(len(data), k, blockSize))
	for s := range stripes {
		stripes[s] = SplitStripe(data, s, k, blockSize)
	}
	return stripes, nil
}

// joinStripes is the inverse of splitStripes: it concatenates the native
// blocks of all stripes and truncates to origLen bytes.
func joinStripes(stripes [][][]byte, origLen int) ([]byte, error) {
	out := make([]byte, 0, origLen)
	for _, blocks := range stripes {
		for _, b := range blocks {
			out = append(out, b...)
		}
	}
	if origLen > len(out) {
		return nil, fmt.Errorf("erasure: origLen %d exceeds available %d bytes", origLen, len(out))
	}
	return out[:origLen], nil
}

func TestSplitJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 7, 64, 100, 128, 129, 1000} {
		data := make([]byte, size)
		rng.Read(data)
		stripes, err := splitStripes(data, 4, 32)
		if err != nil {
			t.Fatal(err)
		}
		back, err := joinStripes(stripes, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestSplitStripesShape(t *testing.T) {
	data := make([]byte, 100)
	stripes, err := splitStripes(data, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	// 100 bytes / 30 per block = 4 blocks -> 2 stripes of k=2.
	if len(stripes) != 2 {
		t.Fatalf("got %d stripes, want 2", len(stripes))
	}
	for _, s := range stripes {
		if len(s) != 2 {
			t.Fatalf("stripe has %d blocks, want 2", len(s))
		}
		for _, b := range s {
			if len(b) != 30 {
				t.Fatalf("block size %d, want 30", len(b))
			}
		}
	}
}

func TestSplitStripesPadding(t *testing.T) {
	data := []byte{1, 2, 3}
	stripes, err := splitStripes(data, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripes) != 1 {
		t.Fatalf("got %d stripes", len(stripes))
	}
	if stripes[0][1][1] != 0 {
		t.Fatal("tail must be zero padded")
	}
}

func TestSplitStripesErrors(t *testing.T) {
	if _, err := splitStripes([]byte{1}, 0, 10); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := splitStripes([]byte{1}, 2, 0); err == nil {
		t.Fatal("blockSize=0 must fail")
	}
	s, err := splitStripes(nil, 2, 4)
	if err != nil || s != nil {
		t.Fatalf("empty data: %v %v", s, err)
	}
}

func TestJoinStripesTooShort(t *testing.T) {
	if _, err := joinStripes(nil, 5); err == nil {
		t.Fatal("origLen beyond data must fail")
	}
}

func TestSplitJoinProperty(t *testing.T) {
	f := func(raw []byte, kSeed, bsSeed uint8) bool {
		k := 1 + int(kSeed)%6
		bs := 1 + int(bsSeed)%50
		stripes, err := splitStripes(raw, k, bs)
		if err != nil {
			return false
		}
		back, err := joinStripes(stripes, len(raw))
		if err != nil {
			return false
		}
		return bytes.Equal(back, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockID(t *testing.T) {
	b := BlockID{Stripe: 2, Index: 3}
	if b.String() != "blk(s2,i3)" {
		t.Fatalf("String() = %q", b.String())
	}
}
