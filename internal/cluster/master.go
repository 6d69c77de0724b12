package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// MasterOptions configures the distributed master.
type MasterOptions struct {
	// Addr is the listen address for worker registration (default
	// "127.0.0.1:0" — loopback, kernel-assigned port).
	Addr string
	// HeartbeatEvery is the real heartbeat period workers must keep
	// (default 500 ms).
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many consecutive periods may pass without a
	// heartbeat before the worker is declared dead (default 4).
	HeartbeatMiss int
	// RPCTimeout bounds each master→worker RPC (default 30 s).
	RPCTimeout time.Duration
	// Engine configures the virtual-clock engine driving the run; its
	// scheduler, network model, and heartbeat cadence are exactly the
	// in-process minimr ones.
	Engine minimr.Options
}

// defaults fills the zero fields and rejects negative ones.
func (o *MasterOptions) defaults() error {
	switch {
	case o.HeartbeatEvery < 0:
		return fmt.Errorf("cluster: negative HeartbeatEvery %v", o.HeartbeatEvery)
	case o.HeartbeatMiss < 0:
		return fmt.Errorf("cluster: negative HeartbeatMiss %d", o.HeartbeatMiss)
	case o.RPCTimeout < 0:
		return fmt.Errorf("cluster: negative RPCTimeout %v", o.RPCTimeout)
	}
	o.Addr = cmp.Or(o.Addr, "127.0.0.1:0")
	o.HeartbeatEvery = cmp.Or(o.HeartbeatEvery, 500*time.Millisecond)
	o.HeartbeatMiss = cmp.Or(o.HeartbeatMiss, 4)
	o.RPCTimeout = cmp.Or(o.RPCTimeout, 30*time.Second)
	return nil
}

// remoteWorker is the master's handle on one registered worker process.
type remoteWorker struct {
	node topology.NodeID
	addr string // peer address other workers fetch from
	conn *rpcConn

	mu     sync.Mutex
	lastHB time.Time
	dead   bool
}

// Master runs minimr jobs across worker processes. It owns the virtual
// master loop (scheduling, locality, failure recovery — identical to the
// in-process engine) and drives workers over the wire for all real data
// work. One Master serves one Run at a time.
type Master struct {
	fs    *dfs.FS
	opts  MasterOptions
	code  *erasure.Code
	ln    net.Listener
	epoch time.Time

	emu   sync.Mutex // serializes the merged trace stream
	sink  trace.Sink
	stats connStats // every worker connection counts into it

	mu        sync.Mutex
	workers   map[topology.NodeID]*remoteWorker
	newlyDead []topology.NodeID // queue for the runtime's PollFailures
	closed    bool

	monitorStop chan struct{}
	acceptDone  chan struct{}
}

// NewMaster validates the options, starts listening, and begins
// accepting worker registrations. The DFS must use the Reed-Solomon
// *erasure.Code (its parameters ship to workers so they can rebuild the
// coder for degraded reads).
func NewMaster(fs *dfs.FS, opts MasterOptions) (*Master, error) {
	if fs == nil {
		return nil, fmt.Errorf("cluster: nil file system")
	}
	code, ok := fs.Code().(*erasure.Code)
	if !ok {
		return nil, fmt.Errorf("cluster: only Reed-Solomon codes can ship to workers, got %T", fs.Code())
	}
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := opts.Engine.Validate(fs.Cluster().Spec()); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	m := &Master{
		fs:          fs,
		opts:        opts,
		code:        code,
		ln:          ln,
		epoch:       time.Now(),
		sink:        opts.Engine.Trace,
		workers:     make(map[topology.NodeID]*remoteWorker),
		monitorStop: make(chan struct{}),
		acceptDone:  make(chan struct{}),
	}
	go m.acceptLoop()
	go m.monitor()
	return m, nil
}

// Addr returns the address workers register at.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// emit adds one event to the merged trace stream (virtual events from
// the simulation goroutine, wire events from worker reader goroutines).
func (m *Master) emit(e trace.Event) {
	if m.sink == nil {
		return
	}
	if e.Run == "" {
		e.Run = m.opts.Engine.TraceLabel
	}
	m.emu.Lock()
	m.sink.Emit(e)
	m.emu.Unlock()
}

func (m *Master) acceptLoop() {
	defer close(m.acceptDone)
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go m.register(c)
	}
}

// register performs the handshake on a fresh connection: the worker
// announces its peer address, the master assigns it the lowest alive
// node without a worker and ships the code and heartbeat geometry with
// the directory of that node's blocks, then each block in its own frame.
func (m *Master) register(c net.Conn) {
	rc := newRPCConn(c, &m.stats)
	var f frame
	if err := rc.recv(&f); err != nil || f.Kind != "register" {
		c.Close() // malformed handshake; nothing to salvage
		return
	}
	var reg registerMsg
	if err := json.Unmarshal(f.Body, &reg); err != nil {
		c.Close()
		return
	}

	m.mu.Lock()
	var node topology.NodeID = -1
	if !m.closed {
		for _, id := range m.fs.Cluster().AliveNodes() {
			if _, taken := m.workers[id]; !taken {
				node = id
				break
			}
		}
	}
	if node < 0 {
		m.mu.Unlock()
		rc.send(&frame{Kind: "registered", Body: mustJSON(registeredMsg{Err: "no free node"})})
		c.Close()
		return
	}
	w := &remoteWorker{node: node, addr: reg.PeerAddr, conn: rc, lastHB: time.Now()}
	m.workers[node] = w
	m.mu.Unlock()

	contents := m.fs.NodeContents(node)
	blocks := make([]storedBlock, len(contents))
	for i, sb := range contents {
		blocks[i] = storedBlock{File: sb.File, Stripe: sb.Block.Stripe, Index: sb.Block.Index}
	}
	resp := registeredMsg{
		Node:        int(node),
		CodeN:       m.code.N(),
		CodeK:       m.code.K(),
		HeartbeatMS: int(m.opts.HeartbeatEvery / time.Millisecond),
		Blocks:      blocks,
	}
	err := rc.send(&frame{Kind: "registered", Body: mustJSON(resp)})
	for i := 0; err == nil && i < len(contents); i++ {
		err = rc.send(&frame{Kind: "block", Payload: contents[i].Data})
	}
	if err != nil {
		m.declareDead(node, fmt.Sprintf("handshake write failed: %v", err))
		return
	}

	rc.notify = func(f *frame) { m.onNotify(w, f) }
	rc.onClose = func(err error) { m.declareDead(node, fmt.Sprintf("connection lost: %v", err)) }
	rc.start()

	ev := trace.New(m.realNow(), trace.EvWorkerJoin)
	ev.Node = int(node)
	ev.Name = reg.PeerAddr
	m.emit(ev)
}

// onNotify handles one-way frames from a worker: heartbeats refresh its
// deadline; events join the merged trace stream.
func (m *Master) onNotify(w *remoteWorker, f *frame) {
	switch f.Kind {
	case "hb":
		w.mu.Lock()
		w.lastHB = time.Now()
		w.mu.Unlock()
	case "event":
		var ev trace.Event
		if err := json.Unmarshal(f.Body, &ev); err == nil {
			m.emit(ev)
		}
	}
}

// sortedWorkers snapshots the worker table in node order so callers do
// not depend on map iteration order. Callers hold m.mu.
func (m *Master) sortedWorkers() []*remoteWorker {
	workers := make([]*remoteWorker, 0, len(m.workers))
	for _, w := range m.workers {
		workers = append(workers, w)
	}
	slices.SortFunc(workers, func(a, b *remoteWorker) int { return cmp.Compare(a.node, b.node) })
	return workers
}

// monitor declares workers dead when their real heartbeats miss the
// deadline, feeding them into the same failure-recovery path a simulated
// failure takes.
func (m *Master) monitor() {
	tick := time.NewTicker(m.opts.HeartbeatEvery / 2)
	defer tick.Stop()
	deadline := m.opts.HeartbeatEvery * time.Duration(m.opts.HeartbeatMiss)
	for {
		select {
		case <-m.monitorStop:
			return
		case now := <-tick.C:
			m.mu.Lock()
			var late []*remoteWorker
			for _, w := range m.sortedWorkers() {
				w.mu.Lock()
				if !w.dead && now.Sub(w.lastHB) > deadline {
					late = append(late, w)
				}
				w.mu.Unlock()
			}
			m.mu.Unlock()
			for _, w := range late {
				m.declareDead(w.node, fmt.Sprintf("missed %d heartbeats", m.opts.HeartbeatMiss))
			}
		}
	}
}

// declareDead marks a worker dead once: its connection is torn down (so
// in-flight RPCs fail fast), the node is queued for the runtime's
// failure poll, and a worker-lost event joins the trace stream. Once
// Close has begun it does nothing: a teardown kills no worker.
func (m *Master) declareDead(node topology.NodeID, reason string) {
	m.mu.Lock()
	w := m.workers[node]
	if w == nil || m.closed {
		m.mu.Unlock()
		return
	}
	w.mu.Lock()
	already := w.dead
	w.dead = true
	w.mu.Unlock()
	if already {
		m.mu.Unlock()
		return
	}
	m.newlyDead = append(m.newlyDead, node)
	m.mu.Unlock()

	w.conn.close(errConnClosed)
	ev := trace.New(m.realNow(), trace.EvWorkerLost)
	ev.Node = int(node)
	ev.Name = reason
	m.emit(ev)
}

// pollDead drains the newly-dead queue; the runtime calls it at every
// virtual heartbeat (runtime.Params.PollFailures).
func (m *Master) pollDead(float64) []topology.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes := m.newlyDead
	m.newlyDead = nil
	return nodes
}

// worker returns the live handle for a node, or nil if it has none or
// it is already dead.
func (m *Master) worker(node topology.NodeID) *remoteWorker {
	m.mu.Lock()
	w := m.workers[node]
	m.mu.Unlock()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		return nil
	}
	return w
}

// workerAddr returns a node's peer address ("" when it has no worker).
func (m *Master) workerAddr(node topology.NodeID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w := m.workers[node]; w != nil {
		return w.addr
	}
	return ""
}

// callWorker performs one RPC against a node's worker and maps failures
// for the runtime: transport errors (timeout, dropped connection)
// declare the worker itself dead; far-side errors that implicate peers
// (a failed fetch from a dead mapper) declare those peers dead. Both
// come back as *runtime.DeadNodeError so the runtime re-executes through
// its normal failure path. Any other remote error aborts the run. The
// response's payload, if any, is returned as it arrived.
func (m *Master) callWorker(node topology.NodeID, method string, req, resp any) ([]byte, error) {
	w := m.worker(node)
	if w == nil {
		return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{node}}
	}
	payload, err := w.conn.call(method, req, resp, m.opts.RPCTimeout, nil)
	if err == nil {
		return payload, nil
	}
	var re *remoteError
	if errors.As(err, &re) {
		if len(re.dead) > 0 {
			nodes := make([]topology.NodeID, len(re.dead))
			for i, id := range re.dead {
				nodes[i] = topology.NodeID(id)
				m.declareDead(nodes[i], fmt.Sprintf("unreachable during %s", method))
			}
			return nil, &runtime.DeadNodeError{Nodes: nodes}
		}
		return nil, re
	}
	m.declareDead(node, fmt.Sprintf("%s failed: %v", method, err))
	return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{node}}
}

// realNow returns real seconds since the master started; wire events
// carry this clock, virtual events the simulation clock.
func (m *Master) realNow() float64 { return time.Since(m.epoch).Seconds() }

// waitWorkers blocks until every alive node has a registered worker.
func (m *Master) waitWorkers(ctx context.Context) error {
	for {
		m.mu.Lock()
		missing := 0
		for _, id := range m.fs.Cluster().AliveNodes() {
			if _, ok := m.workers[id]; !ok {
				missing++
			}
		}
		m.mu.Unlock()
		if missing == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %d workers: %w", missing, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Run executes the jobs across the registered workers and reports like
// the in-process engine. It blocks until every alive node has a worker,
// broadcasts the job specs, then drives the shared virtual master loop
// with the cluster backend.
func (m *Master) Run(ctx context.Context, specs []JobSpec) (*minimr.Report, error) {
	jobs, err := BuildJobs(specs)
	if err != nil {
		return nil, err
	}
	// NewHarness revalidates options and jobs at submission time — the
	// master rejects malformed work before any worker sees it. The run's
	// virtual events join the master's merged trace stream.
	opts := m.opts.Engine
	opts.Trace = masterSink{m}
	h, err := minimr.NewHarness("cluster", m.fs, opts, jobs)
	if err != nil {
		return nil, err
	}
	h.Params.PollFailures = m.pollDead
	if err := m.waitWorkers(ctx); err != nil {
		return nil, err
	}

	for _, id := range m.fs.Cluster().AliveNodes() {
		if _, err := m.callWorker(id, "jobs", specs, nil); err != nil {
			var dead *runtime.DeadNodeError
			if errors.As(err, &dead) {
				continue // the run will recover it like any mid-run failure
			}
			return nil, err
		}
	}

	backend := newClusterBackend(m, h, jobs)
	return h.Run(ctx, backend, backend.outputs)
}

// masterSink routes the runtime's virtual events through the master's
// merged stream, interleaving them with the workers' wire events.
type masterSink struct{ m *Master }

func (s masterSink) Emit(e trace.Event) { s.m.emit(e) }

// Close shuts the master down: the listener stops, the monitor exits,
// and every worker connection closes (workers exit when their master
// connection dies).
func (m *Master) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	workers := m.sortedWorkers()
	m.mu.Unlock()

	close(m.monitorStop)
	m.ln.Close() // unblocks acceptLoop
	for _, w := range workers {
		w.conn.close(errConnClosed)
	}
	<-m.acceptDone
}
