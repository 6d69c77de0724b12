// Package repair holds the policy layer of the background repair
// subsystem: the work queue a proactive healer uses to decide which
// degraded stripe to rebuild next, and the token-bucket throttle
// bounding how much network bandwidth repair traffic may take from
// foreground MapReduce jobs.
//
// The package is deliberately engine-free: it knows nothing about the
// simulation clock, the network model, or the DFS. The runtime's repair
// manager (internal/runtime) drives a Queue and a Bucket with virtual
// times; the DFS (internal/dfs) produces the StripePlans the queue
// holds. Real systems split the same way — minio's MRF and cubeFS's
// Scheduler keep healing policy separate from both the store and the
// transport.
package repair

import (
	"fmt"
	"math"

	"degradedfirst/internal/topology"
)

// Key identifies one stripe of one file — the unit of repair work.
type Key struct {
	// File names the owning file (backends without a real file system
	// use a synthetic per-job name).
	File string
	// Stripe is the stripe index within the file.
	Stripe int
}

// String returns "file#stripe".
func (k Key) String() string { return fmt.Sprintf("%s#%d", k.File, k.Stripe) }

// Source is one surviving block a repair or a degraded read downloads:
// the node holding it and its index within the stripe.
type Source struct {
	Node  topology.NodeID
	Index int
}

// BlockPlan describes the reconstruction of one lost block: read the
// sources, decode, and write the rebuilt block to Dest.
type BlockPlan struct {
	// Index is the lost block's index within the stripe.
	Index int
	// Dest is the node the rebuilt block will be written to.
	Dest topology.NodeID
	// Sources are the surviving blocks to read.
	Sources []Source
	// Local marks an LRC local-group repair (fewer than k sources).
	Local bool
}

// StripePlan is the repair plan for one stripe: every lost block with
// its sources and destination, or an unrepairable verdict.
type StripePlan struct {
	Key Key
	// Lost is the number of lost blocks (len(Blocks) when repairable).
	Lost int
	// Blocks are the per-block plans, in block-index order. Empty when
	// the stripe is unrepairable.
	Blocks []BlockPlan
	// Unrepairable marks a stripe whose survivors do not determine every
	// lost block (for an MDS code: more than n-k losses), or that no
	// alive non-holder node can host: it is reported distinctly, never
	// repaired.
	Unrepairable bool
}

// ReadBytes returns the total network read volume of the plan given the
// block size.
func (p *StripePlan) ReadBytes(blockSize float64) float64 {
	var total float64
	for _, b := range p.Blocks {
		total += float64(len(b.Sources)) * blockSize
	}
	return total
}

// Config configures the background repair subsystem. The zero value
// disables it entirely, keeping the runtime byte-identical to a build
// without the subsystem (pinned by the seed FIFO golden traces).
type Config struct {
	// Enabled turns the healer on.
	Enabled bool

	// RateFraction bounds repair read traffic to this fraction of a node's
	// access link: the NIC where the fabric models one, else the rack link.
	// 0.25 means repair may consume at most a quarter of that link; 0 means
	// unthrottled.
	RateFraction float64
}

// Active reports whether the configuration enables repair.
func (c Config) Active() bool { return c.Enabled }

// Validate checks an active configuration.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.RateFraction < 0 || c.RateFraction > 1 || math.IsNaN(c.RateFraction) {
		return fmt.Errorf("repair: rate fraction %v outside [0, 1]", c.RateFraction)
	}
	return nil
}

// Item is one queued stripe repair.
type Item struct {
	Key Key
	// Boosted marks a stripe re-queued after its in-flight repair was
	// cancelled by a failure: it goes before every unboosted item.
	Boosted bool
}

// Queue is the healer's work queue: at most one item per stripe, in
// discovery order, boosted items first. Not safe for concurrent use (the
// runtime drives it from the simulation goroutine).
type Queue struct {
	items []*Item
	index map[Key]*Item
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	return &Queue{index: make(map[Key]*Item)}
}

// Upsert adds a stripe to the end of the queue, or leaves an already
// queued stripe in its place; boost is sticky.
func (q *Queue) Upsert(key Key, boost bool) {
	if it, ok := q.index[key]; ok {
		it.Boosted = it.Boosted || boost
		return
	}
	it := &Item{Key: key, Boosted: boost}
	q.items = append(q.items, it)
	q.index[key] = it
}

// Peek returns the first boosted item, else the first item, without
// removing it; nil when the queue is empty.
func (q *Queue) Peek() *Item {
	for _, it := range q.items {
		if it.Boosted {
			return it
		}
	}
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// Remove deletes the item for key, if queued.
func (q *Queue) Remove(key Key) {
	it, ok := q.index[key]
	if !ok {
		return
	}
	delete(q.index, key)
	for i, x := range q.items {
		if x == it {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return
		}
	}
}

// Bucket is a virtual-time token bucket: Take either admits a launch
// immediately or reports when enough tokens will have accumulated. The
// bucket is one second of refill deep, and its effective depth is
// max(rate, need), so a launch larger than one second's refill waits for
// its full cost instead of deadlocking — head-of-line blocking is the
// throttle semantics.
type Bucket struct {
	rate   float64 // bytes/second; <= 0 means unlimited
	tokens float64
	last   float64
}

// NewBucket returns a full bucket refilling at rate bytes/second, one
// second of refill deep. rate <= 0 disables throttling.
func NewBucket(rate float64) *Bucket {
	return &Bucket{rate: rate, tokens: rate}
}

// Take requests need bytes of repair budget at virtual time now. When
// the bucket holds enough tokens they are consumed and ok is true;
// otherwise ok is false and readyAt is the virtual instant the caller
// should retry (tokens are not consumed). now must not go backwards.
func (b *Bucket) Take(now, need float64) (ok bool, readyAt float64) {
	if b.rate <= 0 || need <= 0 {
		return true, now
	}
	b.refill(now, need)
	// The comparison tolerates float rounding: a retry scheduled at
	// readyAt refills to within one ulp of need, and refusing it would
	// re-arm an infinitesimally later retry forever.
	if b.tokens >= need*(1-1e-9) {
		b.tokens -= need
		if b.tokens < 0 {
			b.tokens = 0
		}
		return true, now
	}
	return false, now + (need-b.tokens)/b.rate
}

// refill accumulates tokens up to the effective depth for this request.
func (b *Bucket) refill(now, need float64) {
	if now > b.last {
		b.tokens += b.rate * (now - b.last)
	}
	b.last = now
	b.tokens = min(b.tokens, max(b.rate, need))
}
