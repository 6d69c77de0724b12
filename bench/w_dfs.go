package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// dfsInstance is one iteration of dfs-ingest-heal: a fresh, empty
// 16-node (12,10) file system and the seeded bytes to ingest.
type dfsInstance struct {
	fs     *dfs.FS
	files  [][]byte
	rounds int
	rng    *stats.RNG
}

// dfsVictims are the nodes the repair rounds fail, one per rack from the
// last rack down. The schedule is fixed, not drawn from the seed: under
// round-robin placement the high nodes hold parity and the low ones only
// native blocks, and rebuilt blocks pile up on the lowest eligible node,
// so a seeded draw moved the number of degraded reads between 224 and
// 376 and the timed section by a fifth from seed to seed. This schedule
// loses 52, 52, 76 and 76 native blocks and 24, 24, 0 and 0 parity
// blocks on every seed; the seed still makes the bytes and picks every
// degraded read's sources.
var dfsVictims = []topology.NodeID{13, 9, 5, 1}

const (
	dfsN, dfsK    = 12, 10
	dfsBlockBytes = 1 << 20
)

func dfsSetUp(e *env) (instance, error) {
	files, fileBlocks, rounds := 4, 250, 4
	if e.tiny {
		files, fileBlocks, rounds = 2, 20, 2
	}
	clu, err := topology.New(topology.Config{Nodes: 16, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(clu, erasure.MustNew(dfsN, dfsK), dfsBlockBytes, placement.RoundRobin{}, stats.NewRNG(e.seed))
	if err != nil {
		return nil, err
	}
	d := &dfsInstance{fs: fs, rounds: rounds, rng: stats.NewRNG(e.seed + 1)}
	for i := 0; i < files; i++ {
		d.files = append(d.files, randomBytes(fileBlocks*dfsBlockBytes, uint64(e.seed)*1000+uint64(i)+1))
	}
	return d, nil
}

// randomBytes fills n bytes from a xorshift64* stream: incompressible
// input at memory speed, so generating a gigabyte does not dominate
// setup_s the way math/rand would.
func randomBytes(n int, seed uint64) []byte {
	buf := make([]byte, n)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= n; i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(buf[i:], x*0x2545F4914F6CDD1D)
	}
	return buf
}

func fileName(i int) string { return fmt.Sprintf("file%d", i) }

// run ingests the files, then repeats {fail a node, degraded-read every
// native block it held, repair every block it held}. Only the calls
// into dfs are timed into the phases; the ground-truth comparisons sit
// between them.
func (d *dfsInstance) run(e *env) (*outcome, error) {
	o := &outcome{phases: make(map[string]phase)}
	add := func(name string, t0 stopwatch, n int) {
		p := o.phases[name]
		p.seconds += t0.seconds()
		p.bytes += float64(n)
		o.phases[name] = p
	}
	for i, data := range d.files {
		sp := e.spans.start("dfs.Write")
		t0 := startWatch()
		_, err := d.fs.Write(fileName(i), data)
		add("ingest_mb_per_s", t0, len(data))
		e.spans.end(sp, float64(len(data)))
		if err != nil {
			return nil, err
		}
		o.ops += len(data) / dfsBlockBytes
	}
	clu := d.fs.Cluster()
	var victims []topology.NodeID
	for r := 0; r < d.rounds; r++ {
		victim := dfsVictims[r]
		victims = append(victims, victim)
		clu.FailNode(victim)
		reader := clu.AliveNodes()[0]

		sp := e.spans.start("dfs.LostBlocks")
		plans, err := d.fs.LostBlocks([]topology.NodeID{victim})
		e.spans.end(sp, 0)
		if err != nil {
			return nil, err
		}
		for _, plan := range plans {
			if plan.Unrepairable {
				return nil, fmt.Errorf("round %d: stripe %v unrepairable after one failure", r, plan.Key)
			}
			for _, bp := range plan.Blocks {
				b := erasure.BlockID{Stripe: plan.Key.Stripe, Index: bp.Index}
				if bp.Index < dfsK {
					sp := e.spans.start("dfs.DegradedRead")
					t0 := startWatch()
					got, _, err := d.fs.DegradedRead(plan.Key.File, b, reader, dfs.RandomK, d.rng)
					add("degraded_read_mb_per_s", t0, len(got))
					e.spans.end(sp, float64(len(got)))
					o.ops++
					if err != nil {
						return nil, fmt.Errorf("degraded read %s %v: %w", plan.Key.File, b, err)
					}
					want, err := d.fs.ReadBlockUnsafe(plan.Key.File, b)
					if err != nil || !bytes.Equal(got, want) {
						return nil, fmt.Errorf("degraded read %s %v differs from the stored block (%v)", plan.Key.File, b, err)
					}
				}
				sp := e.spans.start("dfs.RepairBlock")
				t0 := startWatch()
				_, err := d.fs.RepairBlock(plan.Key.File, b, bp.Dest, bp.Sources)
				add("repair_mb_per_s", t0, dfsBlockBytes)
				e.spans.end(sp, dfsBlockBytes)
				o.ops++
				if err != nil {
					return nil, fmt.Errorf("repair %s %v: %w", plan.Key.File, b, err)
				}
			}
		}
	}
	o.tasks = o.ops
	o.digest = fmt.Sprintf("%d ops, failed %v", o.ops, victims)
	return o, nil
}

// check reads every native block back from its holder in the healed
// placement (block by block: reassembling a gigabyte per iteration would
// cost more host time than the timed section's repairs).
func (d *dfsInstance) check(_ *env, _ *outcome) []string {
	var bad []string
	if lost, err := d.fs.LostBlocks(nil); err != nil || len(lost) != 0 {
		bad = append(bad, fmt.Sprintf("%d stripes still degraded after the last repair round (%v)", len(lost), err))
	}
	for i, want := range d.files {
		f, err := d.fs.File(fileName(i))
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		for j, b := range f.NativeBlocks() {
			got, err := d.fs.ReadBlock(fileName(i), b)
			if err != nil || !bytes.Equal(got, want[j*dfsBlockBytes:(j+1)*dfsBlockBytes]) {
				bad = append(bad, fmt.Sprintf("%s block %v after heal differs from what was written (%v)", fileName(i), b, err))
				break
			}
		}
	}
	return bad
}

func (d *dfsInstance) close() {}
