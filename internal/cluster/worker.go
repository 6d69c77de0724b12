package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// MasterAddr is where the master listens.
	MasterAddr string
	// ListenAddr is the worker's peer listen address (default
	// "127.0.0.1:0"); other workers fetch blocks and shuffle partitions
	// from it.
	ListenAddr string
	// Drag adds a real delay to every map task. Zero in production; tests
	// and demos use it to stretch real task time so failures land mid-job.
	Drag time.Duration
}

type blockKey struct {
	file          string
	stripe, index int
}

type partKey struct{ job, task int }

// peerSlot is one pool entry; its own lock lets peers dial in parallel.
type peerSlot struct {
	mu sync.Mutex
	rc *rpcConn
}

// Worker is one node's process: it holds the node's erasure-coded
// blocks, runs the real map/reduce functions on the master's command,
// serves blocks and shuffle partitions to peers, and heartbeats to the
// master over the registration connection.
type Worker struct {
	node    topology.NodeID
	code    *erasure.Code
	hbEvery time.Duration
	drag    time.Duration
	conn    *rpcConn
	peerLn  net.Listener
	epoch   time.Time

	stats connStats

	mu    sync.Mutex
	jobs  []minimr.Job
	store map[blockKey][]byte
	// parts[job/task][reducer] holds the task's packed map-output
	// partitions; a reducer's pull writes the stored buffers to its socket.
	parts map[partKey][]minimr.RecordBuf

	// pool maps a peer address to its one lazily dialled connection;
	// conns is every live peer connection in either direction (shutdown
	// closes them all, as a crash would). pmu guards both.
	pmu    sync.Mutex
	pool   map[string]*peerSlot
	conns  map[*rpcConn]struct{}
	closed bool

	// hbStop ends the heartbeat loop while the worker keeps serving; the
	// failure tests close it to exercise the master's deadline detection.
	hbStop    chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// StartWorker dials the master (with backoff — the master may still be
// starting), registers, receives its node identity and block share, and
// begins serving. It returns once the worker is fully operational.
func StartWorker(opts WorkerOptions) (*Worker, error) {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	peerLn, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker listen: %w", err)
	}

	var c net.Conn
	delay := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		c, err = net.Dial("tcp", opts.MasterAddr)
		if err == nil {
			break
		}
		if attempt >= 9 {
			peerLn.Close()
			return nil, fmt.Errorf("cluster: dialing master %s: %w", opts.MasterAddr, err)
		}
		time.Sleep(delay)
		delay *= 2
	}

	w := &Worker{
		drag:   opts.Drag,
		peerLn: peerLn,
		epoch:  time.Now(),
		store:  make(map[blockKey][]byte),
		parts:  make(map[partKey][]minimr.RecordBuf),
		pool:   make(map[string]*peerSlot),
		conns:  make(map[*rpcConn]struct{}),
		hbStop: make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.conn = newRPCConn(c, &w.stats)
	if err := w.handshake(); err != nil {
		peerLn.Close()
		c.Close()
		return nil, err
	}

	w.conn.serve = w.serve
	w.conn.onClose = func(error) { w.shutdown() } // master gone → worker exits
	w.conn.start()
	go w.heartbeatLoop()
	go w.peerAcceptLoop()
	return w, nil
}

// handshake registers with the master and takes delivery of the node's
// identity, geometry and blocks, each block in a frame of its own.
func (w *Worker) handshake() error {
	rc := w.conn
	if err := rc.send(&frame{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: w.peerLn.Addr().String()})}); err != nil {
		return fmt.Errorf("cluster: registering: %w", err)
	}
	var f frame
	if err := rc.recv(&f); err != nil || f.Kind != "registered" {
		return fmt.Errorf("cluster: registration reply: %v (kind %q)", err, f.Kind)
	}
	var msg registeredMsg
	if err := json.Unmarshal(f.Body, &msg); err != nil {
		return fmt.Errorf("cluster: decoding registration: %w", err)
	}
	if msg.Err != "" {
		return fmt.Errorf("cluster: master rejected registration: %s", msg.Err)
	}
	code, err := erasure.New(msg.CodeN, msg.CodeK)
	if err != nil {
		return fmt.Errorf("cluster: rebuilding code: %w", err)
	}
	w.node = topology.NodeID(msg.Node)
	w.code = code
	w.hbEvery = time.Duration(msg.HeartbeatMS) * time.Millisecond
	for _, sb := range msg.Blocks {
		var bf frame
		if err := rc.recv(&bf); err != nil || bf.Kind != "block" {
			return fmt.Errorf("cluster: receiving %s stripe %d block %d: %v (kind %q)", sb.File, sb.Stripe, sb.Index, err, bf.Kind)
		}
		w.store[blockKey{file: sb.File, stripe: sb.Stripe, index: sb.Index}] = bf.Payload
	}
	return nil
}

// Node returns the node identity the master assigned.
func (w *Worker) Node() topology.NodeID { return w.node }

// Done is closed when the worker shuts down (its master connection
// died, or Close was called).
func (w *Worker) Done() <-chan struct{} { return w.done }

// shutdown releases everything except the master connection; it must
// not touch conn, because the connection's own teardown invokes it.
func (w *Worker) shutdown() {
	w.closeOnce.Do(func() {
		close(w.done)
		w.peerLn.Close()
		w.pmu.Lock()
		w.closed = true
		conns := w.conns
		w.conns = nil
		w.pmu.Unlock()
		for rc := range conns {
			rc.close(errConnClosed)
		}
	})
}

// Close shuts the worker down.
func (w *Worker) Close() {
	w.conn.close(errConnClosed) // idempotent; its onClose hook runs shutdown
	w.shutdown()
}

func (w *Worker) heartbeatLoop() {
	t := time.NewTicker(w.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-w.done:
			return
		case <-t.C:
			if err := w.conn.send(&frame{Kind: "hb"}); err != nil {
				return
			}
		}
	}
}

// emit streams one wire event to the master's merged trace; delivery is
// best-effort (a dying connection already surfaces elsewhere).
func (w *Worker) emit(ev trace.Event) {
	w.conn.send(&frame{Kind: "event", Body: mustJSON(ev)})
}

// realNow is real seconds since this worker started; its wire events
// carry this clock.
func (w *Worker) realNow() float64 { return time.Since(w.epoch).Seconds() }

func handle[Req any](body json.RawMessage, fn func(*Req) (any, [][]byte, error)) (any, [][]byte, error) {
	req := new(Req)
	if err := json.Unmarshal(body, req); err != nil {
		return nil, nil, err
	}
	return fn(req)
}

// serve dispatches one master RPC.
func (w *Worker) serve(method string, body json.RawMessage) (any, [][]byte, error) {
	switch method {
	case "jobs":
		return handle(body, w.setJobs)
	case "run-map":
		return handle(body, w.runMap)
	case "run-reduce":
		return handle(body, w.runReduce)
	case "repair-block":
		return handle(body, w.repairBlock)
	default:
		return nil, nil, fmt.Errorf("cluster: unknown method %q", method)
	}
}

// setJobs starts a fresh run: the previous one's partitions go.
func (w *Worker) setJobs(specs *[]JobSpec) (any, [][]byte, error) {
	jobs, err := BuildJobs(*specs)
	if err != nil {
		return nil, nil, err
	}
	w.mu.Lock()
	w.jobs = jobs
	w.parts = make(map[partKey][]minimr.RecordBuf)
	w.mu.Unlock()
	return nil, nil, nil
}

func (w *Worker) job(idx int) (minimr.Job, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if idx < 0 || idx >= len(w.jobs) {
		return minimr.Job{}, fmt.Errorf("cluster: unknown job %d (have %d)", idx, len(w.jobs))
	}
	return w.jobs[idx], nil
}

// runMap gathers the task's input (locally, from a peer, or by degraded
// reconstruction), runs the real map function, and keeps the packed
// partitions for reducers to pull. The master gets the partition sizes.
func (w *Worker) runMap(req *mapReq) (any, [][]byte, error) {
	job, err := w.job(req.Job)
	if err != nil {
		return nil, nil, err
	}
	data, err := w.gatherInput(req)
	if err != nil {
		return nil, nil, err
	}
	if w.drag > 0 {
		time.Sleep(w.drag)
	}

	parts, sizes := minimr.MapBlock(&job, data)
	ev := trace.New(w.realNow(), trace.EvWireMap)
	ev.Job, ev.Task, ev.Node, ev.Bytes = req.Job, req.Task, int(w.node), float64(len(data))
	w.emit(ev)
	w.mu.Lock()
	w.parts[partKey{job: req.Job, task: req.Task}] = parts
	w.mu.Unlock()
	return sizes, nil, nil
}

// gatherInput produces the task's input block: straight from the local
// store, one fetch from the block's holder, or — degraded — a concurrent
// fan-in of the reconstruction sources followed by a real Reed-Solomon
// decode.
func (w *Worker) gatherInput(req *mapReq) ([]byte, error) {
	if len(req.Fetch) == 0 {
		return w.readLocal(req.File, req.Stripe, req.Index)
	}
	if !req.Degraded {
		return w.fetchBlock(req.File, req.Fetch[0], nil)
	}
	return w.reconstruct(req)
}

// reconstruct rebuilds one block from its stripe: fetch every source
// concurrently, decode from the first req.Need to arrive (all of them
// when Need is zero), and cancel the rest — calls are abandoned, the
// pooled connections stay up. Any k survivors decode to identical bytes,
// so which sources win changes only timing. Fails with *deadPeersError,
// naming every unreachable source, only when fewer than that remain.
func (w *Worker) reconstruct(req *mapReq) ([]byte, error) {
	fetch, need := req.Fetch, req.Need
	if need <= 0 || need > len(fetch) {
		need = len(fetch)
	}
	type result struct {
		i    int
		data []byte
		err  error
	}
	results := make(chan result, len(fetch)) // one send per fetch: losers never block
	cancel := make(chan struct{})
	for i, f := range fetch {
		go func(i int, f fetchSpec) {
			data, err := w.fetchBlock(req.File, f, cancel)
			results <- result{i: i, data: data, err: err}
		}(i, f)
	}
	got := make([]*result, len(fetch))
	wins := 0
	for received := 0; received < len(fetch) && wins < need; received++ {
		r := <-results
		got[r.i] = &r
		if r.err == nil {
			wins++
		}
	}
	close(cancel)

	// Arrival order races; decode from (and blame) in request order.
	var srcIdx, dead []int
	var sources [][]byte
	var cause error
	for i, r := range got {
		switch {
		case r == nil:
		case r.err != nil:
			dead = append(dead, fetch[i].Node)
			cause = r.err
		default:
			srcIdx = append(srcIdx, fetch[i].Index)
			sources = append(sources, r.data)
		}
	}
	if wins < need {
		return nil, &deadPeersError{peers: dead, cause: cause}
	}
	data, err := w.code.ReconstructBlock(req.Index, srcIdx, sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: reconstructing %s stripe %d block %d: %w", req.File, req.Stripe, req.Index, err)
	}
	return data, nil
}

func (w *Worker) readLocal(file string, stripe, index int) ([]byte, error) {
	w.mu.Lock()
	data, ok := w.store[blockKey{file: file, stripe: stripe, index: index}]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: node %d does not store %s stripe %d block %d", w.node, file, stripe, index)
	}
	return data, nil
}

// fetchBlock reads one source block: locally when this node holds it,
// otherwise from the holder over its pooled connection. Closing cancel
// abandons an in-flight fetch (nil never cancels).
func (w *Worker) fetchBlock(file string, f fetchSpec, cancel <-chan struct{}) ([]byte, error) {
	if f.Node == int(w.node) {
		return w.readLocal(file, f.Stripe, f.Index)
	}
	data, err := w.peerCall(f.Node, f.Addr, "block", storedBlock{File: file, Stripe: f.Stripe, Index: f.Index}, nil, cancel)
	if err != nil {
		return nil, err
	}
	ev := trace.New(w.realNow(), trace.EvWireFetch)
	ev.Node, ev.Src, ev.Bytes = int(w.node), f.Node, float64(len(data))
	ev.Name = file
	w.emit(ev)
	return data, nil
}

// partitions returns this node's stored partitions of one reducer.
func (w *Worker) partitions(req *chunksReq) ([][]byte, error) {
	bufs := make([][]byte, len(req.Tasks))
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, task := range req.Tasks {
		parts := w.parts[partKey{job: req.Job, task: task}]
		if req.Reducer < 0 || req.Reducer >= len(parts) {
			return nil, fmt.Errorf("no partition %d for job %d task %d", req.Reducer, req.Job, task)
		}
		bufs[i] = parts[req.Reducer]
	}
	return bufs, nil
}

// chunks serves the "chunks" peer RPC with the stored buffers as they
// are; the envelope takes ~40 bytes and at most 21 per partition. One
// partition past the limit goes as none, which the asker rejects.
func (w *Worker) chunks(req *chunksReq) (any, [][]byte, error) {
	bufs, err := w.partitions(req)
	sizes := make([]int, len(bufs))
	for i, b := range bufs {
		sizes[i] = len(b)
	}
	n := fitPrefix(sizes, maxFrame-64-21*len(sizes))
	return sizes[:n], bufs[:n], err
}

// pullHost pulls one mapper host's partitions of the reducer: from its
// own map output, or in as few "chunks" RPCs as the frame limit allows.
func (w *Worker) pullHost(job, reducer int, h hostPull) ([][]byte, error) {
	req := chunksReq{Job: job, Reducer: reducer, Tasks: h.Tasks}
	var bufs [][]byte
	if h.Node == int(w.node) {
		var err error
		if bufs, err = w.partitions(&req); err != nil {
			return nil, err
		}
	}
	for len(bufs) < len(h.Tasks) {
		req.Tasks = h.Tasks[len(bufs):]
		var sizes []int
		data, err := w.peerCall(h.Node, h.Addr, "chunks", req, &sizes, nil)
		if err != nil {
			return nil, err
		}
		got, err := splitChunks(data, sizes, len(req.Tasks))
		if err != nil {
			return nil, fmt.Errorf("cluster: chunks from node %d: %w", h.Node, err)
		}
		bufs = append(bufs, got...)
	}
	ev := trace.New(w.realNow(), trace.EvWireShuffle)
	ev.Job, ev.Task, ev.Node, ev.Src, ev.N = job, reducer, int(w.node), h.Node, len(bufs)
	for _, b := range bufs {
		ev.Bytes += float64(len(b))
	}
	w.emit(ev)
	return bufs, nil
}

// runReduce pulls the reducer's partitions from every host at once, runs
// the real reduce over them by map task index, then keys sorted, and
// returns the packed output. Unreachable hosts fail it as one
// *deadPeersError naming them in node order; other failures come first.
func (w *Worker) runReduce(req *reduceReq) (any, [][]byte, error) {
	job, err := w.job(req.Job)
	if err != nil {
		return nil, nil, err
	}
	var tasks []int
	for _, h := range req.Hosts {
		tasks = append(tasks, h.Tasks...)
	}
	slices.Sort(tasks)
	bufs := make([]minimr.RecordBuf, len(tasks))
	errs := make([]error, len(req.Hosts))
	var wg sync.WaitGroup
	for i, h := range req.Hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got [][]byte
			got, errs[i] = w.pullHost(req.Job, req.Reducer, h)
			for j, buf := range got {
				k, _ := slices.BinarySearch(tasks, h.Tasks[j])
				bufs[k] = buf
			}
		}()
	}
	wg.Wait()
	dead := &deadPeersError{}
	for _, err := range errs {
		var dp *deadPeersError
		if errors.As(err, &dp) {
			dead.peers, dead.cause = append(dead.peers, dp.peers...), dp.cause
		} else if err != nil {
			return nil, nil, err
		}
	}
	if len(dead.peers) > 0 {
		return nil, nil, dead
	}
	var out minimr.RecordBuf
	n := 0
	err = minimr.ReduceBufs(job.Reduce, bufs, func(k, v string) {
		out = out.Append(k, v)
		n++
	})
	if err != nil {
		return nil, nil, err
	}
	ev := trace.New(w.realNow(), trace.EvWireReduce)
	ev.Job, ev.Task, ev.Node, ev.N = req.Job, req.Reducer, int(w.node), n
	w.emit(ev)
	return nil, [][]byte{out}, nil
}

// repairBlock executes one background repair on the master's command:
// fetch the source blocks from peers (concurrently, like a degraded
// read's fan-in), decode the lost block, and store it — this worker is
// the rebuilt block's new holder, so later local reads and peer fetches
// serve it like any block it registered with.
func (w *Worker) repairBlock(req *mapReq) (any, [][]byte, error) {
	if len(req.Fetch) == 0 {
		return nil, nil, fmt.Errorf("cluster: repair of %s stripe %d block %d has no sources", req.File, req.Stripe, req.Index)
	}
	data, err := w.reconstruct(req)
	if err != nil {
		return nil, nil, err
	}
	w.mu.Lock()
	w.store[blockKey{file: req.File, stripe: req.Stripe, index: req.Index}] = data
	w.mu.Unlock()

	ev := trace.New(w.realNow(), trace.EvWireRepair)
	ev.Name, ev.Task, ev.N = req.File, req.Stripe, req.Index
	ev.Node, ev.Bytes = int(w.node), float64(len(data))
	w.emit(ev)
	return nil, nil, nil
}

// peerCall performs one RPC against peer `node` over its pooled
// connection, decodes the response body into resp (may be nil), and
// returns the response payload. A connection that fails or hangs is
// closed (which evicts it) and the call retried on a fresh dial, with
// backoff: workers may be mid-registration when the first fetches fly. A peer still unreachable comes back as *deadPeersError
// so the master can recover; an error the peer reported aborts the run.
// Closing cancel abandons the call and any retries (nil never cancels).
func (w *Worker) peerCall(node int, addr, method string, req, resp any, cancel <-chan struct{}) ([]byte, error) {
	var lastErr error
	delay := 25 * time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(delay)
			select {
			case <-cancel:
				t.Stop()
				return nil, errCallCancelled
			case <-t.C:
			}
			delay *= 2
		}
		rc, err := w.peerConn(addr)
		if err == nil {
			var data []byte
			data, err = rc.call(method, req, resp, 10*time.Second, cancel)
			var re *remoteError
			switch {
			case err == nil, errors.Is(err, errCallCancelled):
				return data, err
			case errors.As(err, &re):
				return nil, fmt.Errorf("cluster: peer %d: %s", node, re.msg)
			}
			rc.close(err)
		}
		lastErr = err
	}
	return nil, &deadPeersError{peers: []int{node}, cause: lastErr}
}

// peerConn returns the pooled connection to a peer, dialling if none.
func (w *Worker) peerConn(addr string) (*rpcConn, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: peer has no address")
	}
	w.pmu.Lock()
	slot := w.pool[addr]
	if slot == nil {
		slot = &peerSlot{}
		w.pool[addr] = slot
	}
	w.pmu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.rc != nil {
		return slot.rc, nil
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	w.stats.add(func(st *Stats) { st.PeerDials++ })
	rc := newRPCConn(c, &w.stats)
	if !w.adopt(rc, func() {
		slot.mu.Lock()
		if slot.rc == rc {
			slot.rc = nil
		}
		slot.mu.Unlock()
	}) {
		return nil, errConnClosed
	}
	slot.rc = rc
	return rc, nil
}

// adopt starts a peer connection and tracks it for shutdown (refused once
// shut down); evict, if not nil, runs when the connection dies.
func (w *Worker) adopt(rc *rpcConn, evict func()) bool {
	rc.onClose = func(error) {
		w.pmu.Lock()
		delete(w.conns, rc)
		w.pmu.Unlock()
		if evict != nil {
			evict()
		}
	}
	w.pmu.Lock()
	if w.closed {
		w.pmu.Unlock()
		rc.c.Close()
		return false
	}
	w.conns[rc] = struct{}{}
	w.pmu.Unlock()
	rc.start()
	return true
}

func (w *Worker) peerAcceptLoop() {
	for {
		c, err := w.peerLn.Accept()
		if err != nil {
			return
		}
		rc := newRPCConn(c, &w.stats)
		rc.serve = w.servePeer
		w.adopt(rc, nil)
	}
}

// servePeer answers a peer with the stored bytes it names, as they are.
func (w *Worker) servePeer(method string, body json.RawMessage) (any, [][]byte, error) {
	switch method {
	case "block":
		return handle(body, func(req *storedBlock) (any, [][]byte, error) {
			data, err := w.readLocal(req.File, req.Stripe, req.Index)
			return nil, [][]byte{data}, err
		})
	case "chunks":
		return handle(body, w.chunks)
	default:
		return nil, nil, fmt.Errorf("unknown peer op %q", method)
	}
}
