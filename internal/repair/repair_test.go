package repair

import (
	"math"
	"slices"
	"testing"
)

func key(s int) Key { return Key{File: "f", Stripe: s} }

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should validate: %v", err)
	}
	good := Config{Enabled: true, RateFraction: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Enabled: true, RateFraction: 1.5},
		{Enabled: true, RateFraction: -0.1},
		{Enabled: true, RateFraction: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStripePlanHelpers(t *testing.T) {
	p := StripePlan{
		Lost:   1,
		Blocks: []BlockPlan{{Index: 2, Sources: make([]Source, 6)}},
	}
	if got := p.ReadBytes(100); got != 600 {
		t.Fatalf("ReadBytes = %v, want 600", got)
	}
}

// drain pops the queue to empty and returns the stripes in Peek order.
func drain(q *Queue) []int {
	var got []int
	for it := q.Peek(); it != nil; it = q.Peek() {
		got = append(got, it.Key.Stripe)
		q.Remove(it.Key)
	}
	return got
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue()
	q.Upsert(key(3), false)
	q.Upsert(key(1), false)
	q.Upsert(key(2), false)
	if got, want := drain(q), []int{3, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("FIFO order = %v, want %v", got, want)
	}
}

func TestQueueBoostGoesFirst(t *testing.T) {
	q := NewQueue()
	q.Upsert(key(1), false)
	q.Upsert(key(2), true)
	q.Upsert(key(3), false)
	q.Upsert(key(4), true)
	// Boosted stripes go first, each group in discovery order.
	if got, want := drain(q), []int{2, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestQueueUpsertSemantics(t *testing.T) {
	q := NewQueue()
	q.Upsert(key(1), false)
	q.Upsert(key(2), false)
	q.Upsert(key(1), true)
	if len(q.items) != 2 || len(q.index) != 2 {
		t.Fatalf("Upsert of a queued key added an item: %d items", len(q.items))
	}
	q.Upsert(key(1), false)
	if !q.index[key(1)].Boosted {
		t.Fatal("boost not sticky")
	}
	// A rediscovered stripe keeps its place in discovery order.
	q.Upsert(key(3), false)
	q.Upsert(key(2), false)
	if got, want := drain(q), []int{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestQueuePeekAfterRemove(t *testing.T) {
	q := NewQueue()
	q.Upsert(key(1), false)
	q.Upsert(key(2), false)
	q.Remove(key(1))
	it := q.Peek()
	if it == nil || it.Key.Stripe != 2 {
		t.Fatalf("Peek after removing the head = %v, want stripe 2", it)
	}
	q.Remove(key(2))
	if it := q.Peek(); it != nil {
		t.Fatalf("Peek on an emptied queue = %v, want nil", it)
	}
}

func TestQueueRemoveMissing(t *testing.T) {
	q := NewQueue()
	q.Remove(key(9)) // no-op
	q.Upsert(key(1), false)
	q.Remove(key(1))
	if len(q.items) != 0 || q.index[key(1)] != nil {
		t.Fatal("Remove left residue")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0)
	ok, at := b.Take(5, 1e12)
	if !ok || at != 5 {
		t.Fatalf("unlimited bucket refused: ok=%v at=%v", ok, at)
	}
}

func TestBucketRefillAndReadyAt(t *testing.T) {
	b := NewBucket(100) // 100 B/s, depth 100, starts full
	ok, _ := b.Take(0, 50)
	if !ok {
		t.Fatal("initial burst refused")
	}
	// 50 tokens left; need 50 more at 100 B/s => ready at t=0.5.
	ok, at := b.Take(0, 100)
	if ok || at != 0.5 {
		t.Fatalf("Take(0, 100) = %v, %v; want refused, ready at 0.5", ok, at)
	}
	// Tokens were not consumed by the refusal; at t=0.5 it admits.
	ok, _ = b.Take(0.5, 100)
	if !ok {
		t.Fatal("Take at readyAt refused")
	}
}

func TestBucketOversizedNeedNoDeadlock(t *testing.T) {
	b := NewBucket(100) // one second of refill is less than the request
	ok, at := b.Take(0, 500)
	if ok {
		t.Fatal("oversized need admitted instantly")
	}
	// 100 tokens banked; 400 more at 100 B/s => ready at 4.
	if at != 4 {
		t.Fatalf("readyAt = %v, want 4", at)
	}
	ok, _ = b.Take(at, 500)
	if !ok {
		t.Fatal("oversized need refused at its own readyAt: deadlock")
	}
	if ok, _ = b.Take(at, 1); ok {
		t.Fatal("bucket retained tokens after oversized spend")
	}
	// A long idle stretch banks no more than the larger of one second's
	// refill and the request.
	if ok, _ = b.Take(100, 101); !ok {
		t.Fatal("request one byte over the depth refused after a long idle")
	}
	if ok, _ = b.Take(100, 1); ok {
		t.Fatal("bucket banked tokens above its depth")
	}
}

func TestBucketDefaultBurst(t *testing.T) {
	b := NewBucket(100)
	// The depth is one second of refill: 100 tokens, starts full.
	if ok, _ := b.Take(0, 100); !ok {
		t.Fatal("bucket refused a one-second need")
	}
	if ok, _ := b.Take(0, 1); ok {
		t.Fatal("bucket not drained")
	}
}
