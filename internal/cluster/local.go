package cluster

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/topology"
)

// Local is an in-process loopback cluster: one master plus one worker
// per alive node, all over 127.0.0.1. It is the CI-friendly way to run
// the distributed runtime — real sockets, real RPCs, real heartbeats,
// no extra processes.
type Local struct {
	Master  *Master
	workers map[topology.NodeID]*Worker
}

// StartLocal builds the loopback cluster over an already-populated DFS.
// Nodes already failed in the DFS's cluster get no worker — the paper's
// pre-run failure injection. wopts.MasterAddr is ignored.
func StartLocal(fs *dfs.FS, mopts MasterOptions, wopts WorkerOptions) (*Local, error) {
	m, err := NewMaster(fs, mopts)
	if err != nil {
		return nil, err
	}
	l := &Local{Master: m, workers: make(map[topology.NodeID]*Worker)}
	wopts.MasterAddr = m.Addr()
	for range fs.Cluster().AliveNodes() {
		w, err := StartWorker(wopts)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("cluster: starting worker: %w", err)
		}
		l.workers[w.Node()] = w
	}
	return l, nil
}

// Run executes the jobs across the loopback cluster.
func (l *Local) Run(ctx context.Context, specs []JobSpec) (*minimr.Report, error) {
	return l.Master.Run(ctx, specs)
}

// Close tears the whole loopback cluster down, the master first, so no
// worker's hang-up reads to it as a death.
func (l *Local) Close() {
	l.Master.Close()
	for _, w := range l.workers {
		w.Close()
	}
}
