// Package dfs implements an in-memory erasure-coded distributed file
// system in the style of HDFS + HDFS-RAID: files are split into fixed-size
// blocks, grouped into stripes of k blocks, encoded into n-k parity blocks,
// and placed on cluster nodes by a placement policy.
//
// It is the one store behind every engine. The discrete-event simulator
// (internal/mapred) keeps its inputs as metadata-only files (CreateMeta):
// it only needs to know which nodes a degraded task or a repair downloads
// from, and a repair there just moves the placement. The real-execution
// engines (internal/minimr and the TCP cluster) keep data-bearing files
// (Write), whose degraded reads and repairs genuinely reconstruct lost
// blocks with whatever erasure.Coder the file system was built over. Both
// plan alike: which survivors rebuild a lost block is decided in one
// place, repairSet, for reads and the healer.
package dfs

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// SelectionStrategy chooses which k survivors a degraded read downloads.
type SelectionStrategy int

const (
	// RandomK picks k survivors uniformly at random — the conventional
	// degraded-read behaviour the paper's analysis assumes ("each degraded
	// task randomly picks k out of n-1 blocks"), and the zero value.
	RandomK SelectionStrategy = iota
	// PreferSameRack greedily prefers survivors in the reader's rack, then
	// fills with random remote survivors. Provided as an ablation of the
	// source-selection design choice.
	PreferSameRack
)

// String returns the strategy name.
func (s SelectionStrategy) String() string {
	switch s {
	case RandomK:
		return "random-k"
	case PreferSameRack:
		return "prefer-same-rack"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// survivorScratch sizes the stack arrays survivorsOf hands SurvivorsOf to
// fill: a wider stripe spills to the heap.
const survivorScratch = 16

// survivorsOf appends to dst the blocks of lost block b's stripe on alive
// nodes, in index order, leaving out those whose index a source in skip
// has. SurvivorsOf only returns alive holders and b's holder has failed,
// but b is left out anyway, guarding against a mid-recovery race where its
// holder is alive.
func survivorsOf(c *topology.Cluster, p *placement.Placement, b erasure.BlockID, skip []repair.Source, dst []repair.Source) []repair.Source {
	var idxBuf [survivorScratch]int
	var holderBuf [survivorScratch]topology.NodeID
	idx, holders := p.SurvivorsOf(c, b.Stripe, idxBuf[:0], holderBuf[:0])
	for i, ix := range idx {
		if ix != b.Index && !slices.ContainsFunc(skip, func(s repair.Source) bool { return s.Index == ix }) {
			dst = append(dst, repair.Source{Node: holders[i], Index: ix})
		}
	}
	return dst
}

// pickK selects, from the survivors of lost block b's stripe the caller
// already listed, the k blocks a degraded read executing on node reader
// will download.
func pickK(c *topology.Cluster, p *placement.Placement, b erasure.BlockID, survivors []repair.Source,
	reader topology.NodeID, strategy SelectionStrategy, rng *stats.RNG) ([]repair.Source, error) {

	k := p.K()
	if len(survivors) < k {
		return nil, fmt.Errorf("dfs: stripe %d has %d survivors, need %d", b.Stripe, len(survivors), k)
	}
	switch strategy {
	case RandomK:
		picked := make([]repair.Source, 0, k)
		for _, i := range rng.PickK(len(survivors), k) {
			picked = append(picked, survivors[i])
		}
		sort.Slice(picked, func(a, b int) bool { return picked[a].Index < picked[b].Index })
		return picked, nil
	case PreferSameRack:
		myRack := c.RackOf(reader)
		var near, far []repair.Source
		for _, s := range survivors {
			if c.RackOf(s.Node) == myRack {
				near = append(near, s)
			} else {
				far = append(far, s)
			}
		}
		picked := make([]repair.Source, 0, k)
		picked = append(picked, near...)
		if len(picked) > k {
			picked = picked[:k]
		} else if len(picked) < k {
			need := k - len(picked)
			for _, i := range rng.PickK(len(far), need) {
				picked = append(picked, far[i])
			}
		}
		sort.Slice(picked, func(a, b int) bool { return picked[a].Index < picked[b].Index })
		return picked, nil
	default:
		return nil, fmt.Errorf("dfs: unknown selection strategy %v", strategy)
	}
}

// SpareSources appends to dst, and returns, up to max surviving blocks of
// lost block b's stripe beyond the ones already picked as primary sources
// — candidates for redundant (hedged) degraded reads. The selection is
// deterministic: survivors not in used, in stripe-index order, no RNG
// draws, so hedged and unhedged runs consume identical random streams. It
// appends fewer than max (possibly none) when the stripe has no spares
// left, and none when used is not a full k-set: that was a locality-aware
// code's local repair group, which is not any-k substitutable.
func SpareSources(c *topology.Cluster, p *placement.Placement, b erasure.BlockID,
	used []repair.Source, max int, dst []repair.Source) []repair.Source {

	if max <= 0 || len(used) != p.K() {
		return dst
	}
	from := len(dst)
	dst = survivorsOf(c, p, b, used, dst)
	return dst[:min(len(dst), from+max)]
}

// repairSet is the one repair-source rule, shared by degraded reads
// (PickRepairSources) and the healer (planStripe). Given the stripe indices
// that can be read, it says which of them rebuild lost block idx:
//
//   - a code with local repair groups whose group for idx is wholly
//     readable reads exactly that group, typically far fewer than k blocks
//     (local is true);
//   - such a code with the group broken, or with no group for idx (a global
//     parity), reads every readable block: it is not MDS, so an arbitrary k
//     of its survivors need not determine idx;
//   - any other code is MDS, so any-k: set is nil and the caller picks k
//     readable blocks its own way (random or same-rack for a read,
//     lowest-index for the healer).
func repairSet(code erasure.Coder, idx int, readable []int) (set []int, local bool) {
	lr, ok := code.(erasure.LocalRepairer)
	if !ok {
		return nil, false
	}
	group, ok := lr.LocalRepairGroup(idx)
	if !ok {
		return readable, false
	}
	for _, i := range group {
		if !slices.Contains(readable, i) {
			return readable, false
		}
	}
	return group, true
}

// PickRepairSources plans a degraded read of lost block b under an
// arbitrary code by the repairSet rule: the block's local repair group or
// every survivor for a locality-aware code (no RNG draw), otherwise
// pickK's k survivors.
func PickRepairSources(c *topology.Cluster, code erasure.Coder, p *placement.Placement,
	b erasure.BlockID, reader topology.NodeID, strategy SelectionStrategy, rng *stats.RNG) ([]repair.Source, error) {

	survivors := survivorsOf(c, p, b, nil, nil)
	alive := make([]int, len(survivors))
	for i, s := range survivors {
		alive[i] = s.Index
	}
	set, _ := repairSet(code, b.Index, alive)
	if set == nil {
		return pickK(c, p, b, survivors, reader, strategy, rng)
	}
	holders := p.StripeHolders(b.Stripe)
	sources := make([]repair.Source, len(set))
	for i, idx := range set {
		sources[i] = repair.Source{Node: holders[idx], Index: idx}
	}
	return sources, nil
}

// File is one erasure-coded file: its placement plus (optionally) the
// actual block contents, including parity.
type File struct {
	Name string
	// Size is the original byte length (before padding).
	Size int
	// Placement maps every block of every stripe to its node.
	Placement *placement.Placement

	// blocks[stripe][index] holds the block bytes; nil in metadata-only
	// files.
	blocks [][][]byte
}

// NumStripes returns the stripe count.
func (f *File) NumStripes() int { return f.Placement.NumStripes() }

// NativeBlocks returns the file's native BlockIDs in order.
func (f *File) NativeBlocks() []erasure.BlockID { return f.Placement.NativeBlocks() }

// HasData reports whether block contents are stored.
func (f *File) HasData() bool { return f.blocks != nil }

// FS is the file system. It is not safe for concurrent use.
type FS struct {
	cluster   *topology.Cluster
	code      erasure.Coder
	blockSize int
	policy    placement.Policy
	rng       *stats.RNG

	files map[string]*File
	names []string

	// encodeParallelism is the worker count for stripe encoding in Write.
	// 0 means GOMAXPROCS; tests set it to run fixed pool sizes. Stripes are
	// independent, so the worker count changes wall-clock time only, never
	// the encoded bytes.
	encodeParallelism int

	// repairBuf is the one buffer RepairBlock rebuilds a block into before
	// comparing it with the stored copy.
	repairBuf []byte
}

// New builds an empty file system over the cluster. policy defaults to
// RackConstrainedRandom when nil.
func New(c *topology.Cluster, code erasure.Coder, blockSize int, policy placement.Policy, rng *stats.RNG) (*FS, error) {
	if c == nil || code == nil {
		return nil, errors.New("dfs: nil cluster or code")
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("dfs: block size must be positive, got %d", blockSize)
	}
	if policy == nil {
		policy = placement.RackConstrainedRandom{}
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	return &FS{
		cluster:   c,
		code:      code,
		blockSize: blockSize,
		policy:    policy,
		rng:       rng,
		files:     make(map[string]*File),
	}, nil
}

// Code returns the erasure code in use.
func (fs *FS) Code() erasure.Coder { return fs.code }

// BlockSize returns the block size in bytes.
func (fs *FS) BlockSize() int { return fs.blockSize }

// Cluster returns the underlying cluster.
func (fs *FS) Cluster() *topology.Cluster { return fs.cluster }

// encodeWorkers resolves the effective worker count for n stripes.
func (fs *FS) encodeWorkers(n int) int {
	w := fs.encodeParallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Write stores data as an erasure-coded file: split into stripes, encode
// parity for real, and place blocks via the policy. Write takes ownership
// of data: the file's full native blocks are views of it, so the caller
// must not modify data afterwards. Only a short tail block and the blocks
// padding the last stripe are copies. Overwriting an existing name is an
// error.
func (fs *FS) Write(name string, data []byte) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("dfs: empty file %q", name)
	}
	numStripes := erasure.NumStripes(len(data), fs.code.K(), fs.blockSize)
	place, err := fs.policy.Place(fs.cluster, numStripes, fs.code.N(), fs.code.K(), fs.rng)
	if err != nil {
		return nil, fmt.Errorf("dfs: placing %q: %w", name, err)
	}
	blocks, err := fs.encodeStripes(name, data, numStripes)
	if err != nil {
		return nil, err
	}
	f := &File{Name: name, Size: len(data), Placement: place, blocks: blocks}
	fs.files[name] = f
	fs.names = append(fs.names, name)
	return f, nil
}

// encodeStripes splits data into each stripe's native blocks and encodes
// them, fanning out across encodeWorkers goroutines. A worker splits a
// stripe and encodes it straight away, so a padded tail copy is still in
// cache. Each worker owns a disjoint set of stripe indices, so the result is
// byte-identical to a serial loop; errors are collected per stripe and the
// lowest-index error is reported, matching what a serial loop would have
// surfaced first.
func (fs *FS) encodeStripes(name string, data []byte, numStripes int) ([][][]byte, error) {
	blocks := make([][][]byte, numStripes)
	errs := make([]error, numStripes)
	encode := func(s int) {
		native := erasure.SplitStripe(data, s, fs.code.K(), fs.blockSize)
		blocks[s], errs[s] = fs.code.EncodeStripe(native)
	}
	workers := fs.encodeWorkers(numStripes)
	if workers <= 1 {
		for s := range blocks {
			encode(s)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(next.Add(1)) - 1
					if s >= numStripes {
						return
					}
					encode(s)
				}
			}()
		}
		wg.Wait()
	}
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dfs: encoding stripe %d of %q: %w", s, name, err)
		}
	}
	return blocks, nil
}

// CreateMeta registers a metadata-only file of numBlocks native blocks
// (no contents), for callers that only need placement: the simulator's
// job inputs, and the benchmark's scheduler probes. It draws the same
// placement Write would for a file of that many blocks.
func (fs *FS) CreateMeta(name string, numBlocks int) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if numBlocks <= 0 {
		return nil, fmt.Errorf("dfs: file %q needs positive block count", name)
	}
	numStripes := (numBlocks + fs.code.K() - 1) / fs.code.K()
	place, err := fs.policy.Place(fs.cluster, numStripes, fs.code.N(), fs.code.K(), fs.rng)
	if err != nil {
		return nil, fmt.Errorf("dfs: placing %q: %w", name, err)
	}
	f := &File{Name: name, Size: numBlocks * fs.blockSize, Placement: place}
	fs.files[name] = f
	fs.names = append(fs.names, name)
	return f, nil
}

// File returns the named file.
func (fs *FS) File(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q not found", name)
	}
	return f, nil
}

// ErrBlockLost is returned by ReadBlock when the holder has failed; the
// caller should fall back to DegradedRead.
var ErrBlockLost = errors.New("dfs: block holder failed; degraded read required")

// ReadBlock returns the stored bytes of a block whose holder is alive.
func (fs *FS) ReadBlock(name string, b erasure.BlockID) ([]byte, error) {
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	if !f.HasData() {
		return nil, fmt.Errorf("dfs: file %q is metadata-only", name)
	}
	if !fs.cluster.Alive(f.Placement.Holder(b)) {
		return nil, fmt.Errorf("%w: %v", ErrBlockLost, b)
	}
	return f.blocks[b.Stripe][b.Index], nil
}

// DegradedRead reconstructs a lost block for real: it picks surviving
// sources (PickRepairSources) and decodes from them (DecodeFrom), returning
// the recovered bytes plus the sources used (for the caller to charge
// network time).
func (fs *FS) DegradedRead(name string, b erasure.BlockID, reader topology.NodeID,
	strategy SelectionStrategy, rng *stats.RNG) ([]byte, []repair.Source, error) {

	f, err := fs.File(name)
	if err != nil {
		return nil, nil, err
	}
	sources, err := PickRepairSources(fs.cluster, fs.code, f.Placement, b, reader, strategy, rng)
	if err != nil {
		return nil, nil, err
	}
	data, err := fs.DecodeFrom(name, b, sources)
	if err != nil {
		return nil, nil, err
	}
	return data, sources, nil
}

// DecodeFrom reconstructs block b for real from the given stripe blocks,
// as a degraded read planned elsewhere fetches them. It never touches b's
// own stored copy.
func (fs *FS) DecodeFrom(name string, b erasure.BlockID, sources []repair.Source) ([]byte, error) {
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	if !f.HasData() {
		return nil, fmt.Errorf("dfs: file %q is metadata-only", name)
	}
	srcIdx := make([]int, len(sources))
	shards := make([][]byte, len(sources))
	for i, s := range sources {
		srcIdx[i] = s.Index
		shards[i] = f.blocks[b.Stripe][s.Index]
	}
	data, err := fs.code.ReconstructBlock(b.Index, srcIdx, shards)
	if err != nil {
		return nil, fmt.Errorf("dfs: reconstructing %v of %q: %w", b, name, err)
	}
	return data, nil
}

// ReadBlockUnsafe returns the stored bytes of a block regardless of its
// holder's failure state. It exists for verification (comparing a degraded
// read's output against ground truth); production reads must use ReadBlock
// or DegradedRead.
func (fs *FS) ReadBlockUnsafe(name string, b erasure.BlockID) ([]byte, error) {
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	if !f.HasData() {
		return nil, fmt.Errorf("dfs: file %q is metadata-only", name)
	}
	return f.blocks[b.Stripe][b.Index], nil
}

// StoredBlock is one block a node holds: the owning file, the block's
// identity, and its stored bytes (native or parity).
type StoredBlock struct {
	File  string
	Block erasure.BlockID
	Data  []byte
}

// NodeContents returns every stored block held by node id across all
// files with data, in file-creation then placement order. The
// distributed runtime ships these to the worker process playing that
// node, so workers serve exactly the blocks the placement assigned them.
func (fs *FS) NodeContents(id topology.NodeID) []StoredBlock {
	var out []StoredBlock
	for _, name := range fs.names {
		f := fs.files[name]
		if !f.HasData() {
			continue
		}
		for _, b := range f.Placement.NodeBlocks(id) {
			out = append(out, StoredBlock{File: name, Block: b, Data: f.blocks[b.Stripe][b.Index]})
		}
	}
	return out
}
