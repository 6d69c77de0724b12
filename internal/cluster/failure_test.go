package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"degradedfirst/internal/minimr"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

// killSink watches the merged trace stream and hard-kills the worker of
// the first node that finishes a map task — while the run is still in
// flight. The kill runs on its own goroutine: the sink is invoked with
// the master's stream lock held.
type killSink struct {
	l *Local

	mu     sync.Mutex
	victim topology.NodeID
	killed bool
}

func (s *killSink) Emit(e trace.Event) {
	if e.Type != trace.EvTaskFinish {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return
	}
	if w := s.l.workers[topology.NodeID(e.Node)]; w != nil {
		s.killed = true
		s.victim = topology.NodeID(e.Node)
		go w.Close()
	}
}

// TestLoopbackKillWorkerMidJob is the mid-job crash claim: hard-killing
// a worker while the job runs (dropping its connection, its blocks, and
// its buffered map output) still converges to the correct result via
// dead-worker detection and task re-execution.
func TestLoopbackKillWorkerMidJob(t *testing.T) {
	fs, corpus := testbedFS(t, 5)
	mem := &trace.Memory{}
	sink := &killSink{}
	opts := engineOpts(multiSink{mem, sink})
	l, err := StartLocal(fs, MasterOptions{
		// Detection of the kill is connection-based (the dead worker's
		// socket drops), so the heartbeat deadline can stay generous for
		// slow CI runners.
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         opts,
	}, WorkerOptions{
		// Stretch real task time so the kill lands mid-job.
		Drag: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sink.l = l

	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	victim, killed := sink.victim, sink.killed
	sink.mu.Unlock()
	if !killed {
		t.Fatal("no worker was killed — the run finished before any map task did?")
	}
	foundVictim := false
	for _, id := range rep.Failed {
		if id == victim {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Fatalf("killed node %d not in failed list %v", victim, rep.Failed)
	}

	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatalf("output wrong after mid-job worker kill (%d vs %d keys)",
			len(rep.Outputs[0]), len(want))
	}

	// The failure must be visible in the merged stream: the master
	// declared the worker lost and re-planned work.
	var lost, requeues int
	for _, e := range mem.Events() {
		switch e.Type {
		case trace.EvWorkerLost:
			lost++
		case trace.EvTaskRequeue:
			requeues++
		}
	}
	if lost == 0 {
		t.Fatal("no worker-lost event in the merged stream")
	}
	if requeues == 0 {
		t.Fatal("no task was re-executed after the kill")
	}
}

// TestLoopbackHeartbeatDeadline is the pure failure-detection claim: a
// worker that stops heartbeating but keeps its connection open and keeps
// serving requests is still declared dead at the deadline, and the run
// completes without it.
//
// The victim alone gets a drag far past the detection deadline, so the
// run cannot finish before the master declares it dead — and while the
// master waits on the victim's stuck map tasks, the rest of the cluster
// idles, so even a 1-CPU runner keeps the other heartbeats flowing.
func TestLoopbackHeartbeatDeadline(t *testing.T) {
	fs, corpus := testbedFS(t, 6)
	m, err := NewMaster(fs, MasterOptions{
		// ~2 s of silence. Generous because a 1-CPU runner under -race can
		// starve every heartbeat goroutine for hundreds of milliseconds —
		// still far below the victim's 60 s drag, so the run cannot finish
		// before detection fires.
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const victim topology.NodeID = 7
	var victimWorker *Worker
	for i := 0; i < 12; i++ {
		opts := WorkerOptions{MasterAddr: m.Addr()}
		if topology.NodeID(i) == victim {
			opts.Drag = 60 * time.Second // never answers in time
		}
		w, err := StartWorker(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		// Sequential starts get node IDs in order; the drag must really
		// be on the victim.
		if w.Node() != topology.NodeID(i) {
			t.Fatalf("worker %d assigned node %d", i, w.Node())
		}
		if w.Node() == victim {
			victimWorker = w
		}
	}
	if victimWorker == nil {
		t.Fatalf("no worker took node %d", victim)
	}
	close(victimWorker.hbStop) // the beats stop; the connection stays up

	rep, err := m.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	foundVictim := false
	for _, id := range rep.Failed {
		if id == victim {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Fatalf("silent node %d not declared dead (failed: %v)", victim, rep.Failed)
	}
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatal("output wrong after heartbeat-deadline failure")
	}
}

// multiSink fans one stream out to several sinks.
type multiSink []trace.Sink

func (m multiSink) Emit(e trace.Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// masterlessWorker is a worker for node that never registered: it runs
// the given jobs' reduces and pulls from peers, and its trace events go
// to a connection nobody reads.
func masterlessWorker(t *testing.T, node topology.NodeID, specs []JobSpec) *Worker {
	t.Helper()
	jobs, err := BuildJobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	end, sink := net.Pipe()
	go io.Copy(io.Discard, sink)
	w := &Worker{node: node, peerLn: peerLn, jobs: jobs, parts: make(map[partKey][]minimr.RecordBuf),
		pool: make(map[string]*peerSlot), conns: make(map[*rpcConn]struct{}), done: make(chan struct{})}
	w.conn = newRPCConn(end, &w.stats)
	t.Cleanup(w.Close)
	return w
}

// deadAddr is a loopback address nobody listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunReduceNamesDeadHostsTogether: a reduce whose mapper hosts are
// both unreachable fails once, with one *deadPeersError naming both in
// node order, and the master turns that into one runtime.DeadNodeError.
func TestRunReduceNamesDeadHostsTogether(t *testing.T) {
	w := masterlessWorker(t, 0, []JobSpec{{Kind: "wordcount", Input: "input.txt", NumReducers: 2}})
	req := &reduceReq{Job: 0, Reducer: 1, Hosts: []hostPull{
		{Node: 2, Addr: deadAddr(t), Tasks: []int{0, 3}},
		{Node: 7, Addr: deadAddr(t), Tasks: []int{1}},
	}}
	_, _, err := w.runReduce(req)
	var dp *deadPeersError
	if !errors.As(err, &dp) || !reflect.DeepEqual(dp.peers, []int{2, 7}) {
		t.Fatalf("run-reduce with two dead mapper hosts returned %v, want *deadPeersError naming [2 7]", err)
	}

	fs, _ := testbedFS(t, 11)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cli, _ := connPair(t, w.serve)
	m.mu.Lock()
	m.workers[0] = &remoteWorker{node: 0, conn: cli, lastHB: time.Now()}
	m.mu.Unlock()
	_, err = m.callWorker(0, "run-reduce", req, nil)
	var dn *runtime.DeadNodeError
	if !errors.As(err, &dn) || !reflect.DeepEqual(dn.Nodes, []topology.NodeID{2, 7}) {
		t.Fatalf("the master's run-reduce returned %v, want one DeadNodeError naming [2 7]", err)
	}
}

// TestReconstructShortOfSources: a degraded read that needs two sources
// and reaches only its local one fails with one *deadPeersError naming
// the two unreachable sources in request order, not node order.
func TestReconstructShortOfSources(t *testing.T) {
	w := masterlessWorker(t, 0, nil)
	w.store = map[blockKey][]byte{{file: "input.txt", stripe: 0, index: 1}: make([]byte, 64)}
	_, err := w.reconstruct(&mapReq{File: "input.txt", Index: 0, Degraded: true, Need: 2, Fetch: []fetchSpec{
		{Node: 5, Addr: deadAddr(t), Index: 2},
		{Node: 0, Index: 1},
		{Node: 3, Addr: deadAddr(t), Index: 3},
	}})
	var dp *deadPeersError
	if !errors.As(err, &dp) || !reflect.DeepEqual(dp.peers, []int{5, 3}) {
		t.Fatalf("reconstruct from one reachable source of two needed returned %v, want *deadPeersError naming [5 3]", err)
	}
}
