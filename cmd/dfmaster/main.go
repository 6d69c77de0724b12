// Command dfmaster runs the distributed master: it builds the scaled
// testbed DFS in memory (generated corpus, erasure-coded placement),
// listens for dfworker registrations, and once every alive node has a
// worker, runs the requested job across them, printing the result as
// JSON on stdout.
//
// The listen address is announced on stderr as "dfmaster: listening on
// ADDR" so scripts (and the end-to-end test) can start workers against
// a kernel-assigned port. Each worker the master declares dead is logged
// there too, with the reason: missed heartbeats, a lost connection, or a
// failed or unreachable RPC.
//
// Usage:
//
//	dfmaster -addr 127.0.0.1:7400 &
//	for i in $(seq 12); do dfworker -master 127.0.0.1:7400 & done
//
//	dfmaster -fail 3 -sched EDF -job grep -word the
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dfmaster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("dfmaster", flag.ContinueOnError)
	var (
		addr       = fl.String("addr", "127.0.0.1:0", "listen address for worker registration")
		nodes      = fl.Int("nodes", 12, "cluster nodes")
		racks      = fl.Int("racks", 3, "racks")
		mapSlots   = fl.Int("mapslots", 4, "map slots per node")
		redSlots   = fl.Int("reduceslots", 1, "reduce slots per node")
		codeN      = fl.Int("n", 12, "code stripe width n")
		codeK      = fl.Int("k", 10, "code data blocks k")
		blocks     = fl.Int("blocks", 60, "corpus size in blocks")
		blockSize  = fl.Int("blocksize", minimr.TestbedBlockSize, "block size in bytes")
		seed       = fl.Int64("seed", 1, "corpus and placement seed")
		fail       = fl.String("fail", "", "comma-separated node IDs to fail before the run")
		schedName  = fl.String("sched", "LF", "scheduler: LF, BDF, EDF, EagerDF or DelayLF")
		jobKind    = fl.String("job", "wordcount", "job kind: wordcount, grep or linecount")
		word       = fl.String("word", "", "grep needle (required with -job grep)")
		reducers   = fl.Int("reducers", 8, "reduce task count")
		rackBps    = fl.Float64("rackbps", minimr.TestbedRackBps, "virtual rack bandwidth (bytes/s)")
		hbEvery    = fl.Duration("hb-every", 500*time.Millisecond, "real worker heartbeat period")
		hbMiss     = fl.Int("hb-miss", 4, "missed heartbeats before a worker is declared dead")
		rpcTimeout = fl.Duration("rpc-timeout", 30*time.Second, "per-RPC deadline")
	)
	fl.SetOutput(os.Stderr)
	if err := fl.Parse(args); err != nil {
		return err
	}

	kind, err := sched.ParseKind(*schedName)
	if err != nil {
		return err
	}

	clu, err := topology.New(topology.Config{
		Nodes: *nodes, Racks: *racks,
		MapSlotsPerNode: *mapSlots, ReduceSlotsPerNode: *redSlots,
	})
	if err != nil {
		return err
	}
	code, err := erasure.New(*codeN, *codeK)
	if err != nil {
		return err
	}
	fs, err := dfs.New(clu, code, *blockSize, placement.RoundRobin{}, stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(*blocks, *blockSize, *seed)
	if err != nil {
		return err
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		return err
	}
	if *fail != "" {
		for _, s := range strings.Split(*fail, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || id < 0 || id >= clu.NumNodes() {
				return fmt.Errorf("bad -fail node %q", s)
			}
			clu.FailNode(topology.NodeID(id))
		}
	}

	engine := minimr.Options{Scheduler: kind, RackBps: *rackBps, Seed: *seed, Trace: lostLog{}}
	engine.OutOfBandHeartbeats = true
	m, err := cluster.NewMaster(fs, cluster.MasterOptions{
		Addr:           *addr,
		HeartbeatEvery: *hbEvery,
		HeartbeatMiss:  *hbMiss,
		RPCTimeout:     *rpcTimeout,
		Engine:         engine,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	fmt.Fprintf(os.Stderr, "dfmaster: listening on %s (waiting for %d workers)\n",
		m.Addr(), len(clu.AliveNodes()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := m.Run(ctx, []cluster.JobSpec{{
		Kind:        *jobKind,
		Input:       "input.txt",
		Word:        *word,
		NumReducers: *reducers,
	}})
	if err != nil {
		return err
	}

	doc := map[string]any{
		"scheduler":   rep.Scheduler,
		"failed":      rep.Failed,
		"makespan":    rep.Makespan,
		"bytes_moved": rep.BytesMoved,
		"outputs":     rep.Outputs,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// lostLog logs the master's worker-lost events on stderr and drops the
// rest of the trace.
type lostLog struct{}

func (lostLog) Emit(e trace.Event) {
	if e.Type == trace.EvWorkerLost {
		fmt.Fprintf(os.Stderr, "dfmaster: node %d lost at %.3fs: %s\n", e.Node, e.T, e.Name)
	}
}
