package repair

import (
	"math"
	"testing"
)

func key(s int) Key { return Key{File: "f", Stripe: s} }

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should validate: %v", err)
	}
	good := Config{Enabled: true, Policy: Deadline, RateFraction: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Enabled: true, Policy: Policy(99)},
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
		N: 9, K: 6, Lost: 1,
		Blocks: []BlockPlan{{Index: 2, Sources: make([]Source, 6)}},
	}
	if got := p.ReadBytes(100); got != 600 {
		t.Fatalf("ReadBytes = %v, want 600", got)
	}
	if got := p.Spare(); got != 2 {
		t.Fatalf("Spare = %d, want 2", got)
	}
	p.Lost = 5
	if got := p.Spare(); got != 0 {
		t.Fatalf("Spare clamps at 0, got %d", got)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(FIFO)
	q.Upsert(key(3), 1, 2, 0, 0, false)
	q.Upsert(key(1), 2, 0, 1, 0, false)
	q.Upsert(key(2), 1, 1, 2, 0, false)
	var got []int
	for q.Len() > 0 {
		it := q.Peek()
		got = append(got, it.Key.Stripe)
		q.Remove(it.Key)
	}
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO order = %v, want %v", got, want)
		}
	}
}

func TestQueueMostAtRiskOrder(t *testing.T) {
	q := NewQueue(MostAtRisk)
	q.Upsert(key(3), 1, 2, 0, 0, false)
	q.Upsert(key(1), 2, 0, 1, 0, false)
	q.Upsert(key(2), 1, 0, 2, 0, false) // same spare as stripe 1: seq breaks tie
	var got []int
	for q.Len() > 0 {
		it := q.Peek()
		got = append(got, it.Key.Stripe)
		q.Remove(it.Key)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("most-at-risk order = %v, want %v", got, want)
		}
	}
}

func TestQueueDeadlineOrder(t *testing.T) {
	q := NewQueue(Deadline)
	q.Upsert(key(1), 1, 2, 0, 180, false)
	q.Upsert(key(2), 1, 0, 1, 61, false)
	q.Upsert(key(3), 1, 1, 2, 122, false)
	var got []int
	for q.Len() > 0 {
		it := q.Peek()
		got = append(got, it.Key.Stripe)
		q.Remove(it.Key)
	}
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deadline order = %v, want %v", got, want)
		}
	}
}

func TestQueueBoostWinsUnderEveryPolicy(t *testing.T) {
	for _, p := range []Policy{FIFO, MostAtRisk, Deadline} {
		q := NewQueue(p)
		q.Upsert(key(1), 1, 0, 0, 10, false) // earliest, most at risk, tightest deadline
		q.Upsert(key(2), 1, 5, 9, 999, true) // but boosted
		if it := q.Peek(); it.Key.Stripe != 2 {
			t.Fatalf("policy %v: boosted item lost to %v", p, it.Key)
		}
	}
}

func TestQueueUpsertSemantics(t *testing.T) {
	q := NewQueue(Deadline)
	it := q.Upsert(key(1), 2, 1, 5, 100, false)
	// Re-upsert: lost/spare overwritten, deadline only tightens,
	// enqueue time preserved, boost sticky once set.
	again := q.Upsert(key(1), 1, 2, 9, 200, true)
	if again != it {
		t.Fatal("Upsert allocated a second item for the same key")
	}
	if it.Lost != 1 || it.Spare != 2 {
		t.Fatalf("lost/spare not refreshed: %+v", it)
	}
	if it.Deadline != 100 {
		t.Fatalf("deadline loosened to %v", it.Deadline)
	}
	if it.EnqueuedAt != 5 {
		t.Fatalf("enqueue time rewritten to %v", it.EnqueuedAt)
	}
	if !it.Boosted {
		t.Fatal("boost not applied")
	}
	q.Upsert(key(1), 1, 2, 9, 50, false)
	if it.Deadline != 50 {
		t.Fatalf("tighter deadline not taken: %v", it.Deadline)
	}
	if !it.Boosted {
		t.Fatal("boost not sticky")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

func TestQueuePeekAfterRemove(t *testing.T) {
	q := NewQueue(FIFO)
	q.Upsert(key(1), 1, 1, 0, 0, false)
	q.Upsert(key(2), 1, 1, 1, 0, false)
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
	q := NewQueue(FIFO)
	q.Remove(key(9)) // no-op
	q.Upsert(key(1), 1, 1, 0, 0, false)
	q.Remove(key(1))
	if q.Len() != 0 || q.Get(key(1)) != nil {
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
