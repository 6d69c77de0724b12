package erasure

import "testing"

// TestShardErrors: a stripe of unequal shards does not encode, and a
// source index past the code's n determines nothing.
func TestShardErrors(t *testing.T) {
	c := MustNew(6, 4)
	if _, err := c.EncodeStripe([][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 7)}); err == nil {
		t.Error("a stripe of unequal shards encoded")
	}
	if c.Determines(0, []int{1, 2, 3, 9}) {
		t.Error("a source past the stripe determines a block")
	}
}
