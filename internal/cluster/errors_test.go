package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
)

// wantErr fails unless err is non-nil and its message contains want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %v, want one containing %q", what, err, want)
	}
}

// TestStartupErrors: a master or a loopback cluster that cannot start
// says why, and leaves nothing running.
func TestStartupErrors(t *testing.T) {
	fs, _ := testbedFS(t, 2)
	_, err := NewMaster(nil, MasterOptions{})
	wantErr(t, "NewMaster(nil)", err, "nil file system")
	_, err = StartLocal(nil, MasterOptions{}, WorkerOptions{})
	wantErr(t, "StartLocal(nil)", err, "nil file system")
	_, err = NewMaster(fs, MasterOptions{Addr: "127.0.0.1:-1"})
	wantErr(t, "NewMaster on a bad address", err, "cluster: listen")
	_, err = StartLocal(fs, MasterOptions{}, WorkerOptions{ListenAddr: "127.0.0.1:-1"})
	wantErr(t, "StartLocal with a bad worker address", err, "cluster: starting worker: cluster: worker listen")

	lrc, err := erasure.NewLRC(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lfs, err := dfs.New(fs.Cluster(), lrc, minimr.TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewMaster(lfs, MasterOptions{})
	wantErr(t, "NewMaster over an LRC", err, "only Reed-Solomon codes")
}

// fakeMaster accepts one worker, reads its registration, and answers
// with reply; it returns the address to dial.
func fakeMaster(t *testing.T, reply func(rc *rpcConn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		rc := newRPCConn(c, new(connStats))
		var f frame
		if rc.recv(&f) == nil {
			reply(rc)
		}
	}()
	return ln.Addr().String()
}

// TestWorkerHandshakeErrors: a worker whose master answers its
// registration with anything but a well-formed directory and its blocks
// fails to start, naming what went wrong.
func TestWorkerHandshakeErrors(t *testing.T) {
	registered := func(msg registeredMsg) *frame { return &frame{Kind: "registered", Body: mustJSON(msg)} }
	for _, tc := range []struct {
		name  string
		reply []*frame
		want  string
	}{
		{"wrong reply kind", []*frame{{Kind: "hb"}}, "registration reply"},
		{"undecodable reply", []*frame{{Kind: "registered", Body: json.RawMessage(`[1]`)}}, "decoding registration"},
		{"rejected", []*frame{registered(registeredMsg{Err: "no free node"})}, "master rejected registration: no free node"},
		{"bad code", []*frame{registered(registeredMsg{CodeN: 2, CodeK: 3})}, "rebuilding code"},
		{"block frame missing", []*frame{
			registered(registeredMsg{CodeN: 3, CodeK: 2, Blocks: []storedBlock{{File: "f"}}}),
			{Kind: "hb"},
		}, "receiving f stripe 0 block 0"},
	} {
		addr := fakeMaster(t, func(rc *rpcConn) {
			for _, f := range tc.reply {
				rc.send(f)
			}
		})
		_, err := StartWorker(WorkerOptions{MasterAddr: addr})
		wantErr(t, tc.name, err, tc.want)
	}
}

// TestRegisterRejects: the master drops a connection whose handshake is
// malformed, answers a worker it has no node for, and declares a node
// dead when its handshake cannot be written.
func TestRegisterRejects(t *testing.T) {
	fs, _ := testbedFS(t, 3)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// register runs on the master's end of a pipe; hello is what the
	// worker's end sends, and then does.
	handshake := func(hello *frame, then func(c net.Conn)) {
		worker, master := net.Pipe()
		done := make(chan struct{})
		go func() {
			m.register(master)
			close(done)
		}()
		// One write: a pipe write blocks until read, and the master
		// never reads an empty payload.
		var buf bytes.Buffer
		writeFrame(&buf, hello)
		worker.Write(buf.Bytes())
		then(worker)
		<-done
	}
	var f frame
	drained := func(c net.Conn) {
		if err := readFrame(c, &f); err == nil {
			t.Errorf("the master answered a malformed handshake with a %q frame", f.Kind)
		}
	}
	handshake(&frame{Kind: "hb"}, drained)
	handshake(&frame{Kind: "register", Body: json.RawMessage(`[1]`)}, drained)

	// The worker's end closes before the master's answer goes out.
	handshake(&frame{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: "x"})}, func(c net.Conn) { c.Close() })
	if dead := m.pollDead(0); len(dead) != 1 || dead[0] != 0 {
		t.Errorf("a failed handshake write declared %v dead, want node 0", dead)
	}

	m.Close()
	handshake(&frame{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: "x"})}, func(c net.Conn) {
		var msg registeredMsg
		if err := readFrame(c, &f); err != nil || json.Unmarshal(f.Body, &msg) != nil || msg.Err != "no free node" {
			t.Errorf("a closed master answered %+v (%v), want no free node", msg, err)
		}
	})
}

// closedConn is a started rpcConn whose far end is already closed.
func closedConn() *rpcConn {
	near, far := net.Pipe()
	far.Close()
	rc := newRPCConn(near, new(connStats))
	rc.start()
	return rc
}

// TestMasterRunErrors: a run whose workers never arrive stops at its
// context; one whose job broadcast a worker refuses stops with that
// refusal, after skipping a worker found dead on the way.
func TestMasterRunErrors(t *testing.T) {
	fs, _ := testbedFS(t, 5)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	specs := []JobSpec{{Kind: "wordcount", Input: "input.txt", NumReducers: 2}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.Run(ctx, specs)
	wantErr(t, "Run with no workers", err, "waiting for 12 workers")

	for _, dead := range []bool{false, true} {
		if dead {
			m.mu.Lock()
			m.workers[4] = &remoteWorker{node: 4, dead: true}
			m.mu.Unlock()
		}
		_, err = m.callWorker(4, "jobs", specs, nil)
		if dn := (*runtime.DeadNodeError)(nil); !errors.As(err, &dn) {
			t.Errorf("a call to a node whose worker is missing or dead (%v) returned %v, want a DeadNodeError", dead, err)
		}
	}
	m.mu.Lock()
	for _, id := range fs.Cluster().AliveNodes() {
		conn := closedConn()
		if id > 0 {
			conn, _ = connPair(t, func(string, json.RawMessage) (any, [][]byte, error) { return nil, nil, errors.New("refused") })
		}
		m.workers[id] = &remoteWorker{node: id, conn: conn, lastHB: time.Now()}
	}
	m.mu.Unlock()
	_, err = m.Run(context.Background(), specs)
	var re *remoteError
	if !errors.As(err, &re) || re.msg != "refused" {
		t.Errorf("Run with a refusing worker returned %v, want its remote error", err)
	}
	if dead := m.pollDead(0); len(dead) != 1 || dead[0] != 0 {
		t.Errorf("the broadcast declared %v dead, want node 0", dead)
	}
}

// TestBackendErrors: the cluster backend passes on a planning failure, a
// repair whose destination has no worker, a reducer output that does not
// decode, and a reduce that failed.
func TestBackendErrors(t *testing.T) {
	fs, _ := testbedFS(t, 6)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	jobs, err := BuildJobs([]JobSpec{{Kind: "wordcount", Input: "input.txt", NumReducers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := minimr.NewHarness("cluster", fs, m.opts.Engine, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b := newClusterBackend(m, h, jobs)
	err = b.PlanInput(0, 0, sched.Class(99), 0, runtime.SpareBudget{}, new(runtime.InputPlan))
	wantErr(t, "PlanInput of an unknown class", err, "unknown assignment class")
	_, err = b.CommitRepair(repair.Key{File: "input.txt"}, repair.BlockPlan{Dest: 3})
	if dn := (*runtime.DeadNodeError)(nil); !errors.As(err, &dn) {
		t.Errorf("a repair to a node without a worker returned %v, want a DeadNodeError", err)
	}
	fut := make(chan outcome, 1)
	fut <- outcome{output: minimr.RecordBuf{0xff}}
	b.reducing[0][1] = fut
	wantErr(t, "a corrupt reducer output", b.AwaitReduce(0, 1, 2), "output of job 0 reducer 1 from node 2")
	fut <- outcome{err: errors.New("reducer lost")}
	b.reducing[0][1] = fut
	wantErr(t, "a failed reduce", b.AwaitReduce(0, 1, 2), "reducer lost")
}

// TestWorkerRejectsBadRequests: every request a worker cannot serve, and
// every peer call that cannot complete, comes back as an error naming what
// is wrong.
func TestWorkerRejectsBadRequests(t *testing.T) {
	w := masterlessWorker(t, 0, []JobSpec{{Kind: "wordcount", Input: "input.txt", NumReducers: 2}})
	w.store = map[blockKey][]byte{{file: "input.txt", index: 1}: make([]byte, 64)}
	w.parts[partKey{job: 0, task: 4}] = []minimr.RecordBuf{nil, {0xff}}
	w.code = erasure.MustNew(3, 2)
	peer := masterlessWorker(t, 1, nil)
	go peer.peerAcceptLoop()

	_, _, err := w.serve("bogus", nil)
	wantErr(t, "an unknown method", err, `unknown method "bogus"`)
	_, _, err = w.serve("run-map", json.RawMessage(`[`))
	wantErr(t, "an undecodable request", err, "unexpected end of JSON input")
	_, _, err = w.serve("jobs", json.RawMessage(`[{"kind":"bogus"}]`))
	wantErr(t, "a job list naming an unknown kind", err, `unknown job kind "bogus"`)
	_, _, err = w.servePeer("bogus", nil)
	wantErr(t, "an unknown peer op", err, `unknown peer op "bogus"`)
	_, _, err = w.runMap(&mapReq{Job: 3})
	wantErr(t, "a map of an unknown job", err, "unknown job 3 (have 1)")
	_, _, err = w.runMap(&mapReq{File: "input.txt", Index: 7})
	wantErr(t, "a map of a block the node lacks", err, "node 0 does not store input.txt stripe 0 block 7")
	_, err = w.reconstruct(&mapReq{File: "input.txt", Fetch: []fetchSpec{{Node: 0, Index: 1}, {Node: 0, Index: 1}}})
	wantErr(t, "a decode from a repeated source", err, "reconstructing input.txt stripe 0 block 0")
	_, _, err = w.runReduce(&reduceReq{Job: 3})
	wantErr(t, "a reduce of an unknown job", err, "unknown job 3 (have 1)")
	_, _, err = w.runReduce(&reduceReq{Reducer: 1, Hosts: []hostPull{{Node: 0, Tasks: []int{5}}}})
	wantErr(t, "a reduce of a partition the node lacks", err, "no partition 1 for job 0 task 5")
	_, _, err = w.runReduce(&reduceReq{Reducer: 1, Hosts: []hostPull{{Node: 0, Tasks: []int{4}}}})
	wantErr(t, "a reduce of a corrupt partition", err, "minimr: ")
	_, _, err = w.repairBlock(&mapReq{File: "input.txt", Stripe: 2, Index: 1})
	wantErr(t, "a repair with no sources", err, "repair of input.txt stripe 2 block 1 has no sources")
	_, _, err = w.repairBlock(&mapReq{File: "input.txt", Need: 1, Fetch: []fetchSpec{{Node: 6, Addr: deadAddr(t)}}})
	if dp := (*deadPeersError)(nil); !errors.As(err, &dp) {
		t.Errorf("a repair from a dead source returned %v, want a *deadPeersError", err)
	}
	_, err = w.peerConn("")
	wantErr(t, "a peer without an address", err, "peer has no address")
	_, err = w.peerCall(1, peer.peerLn.Addr().String(), "bogus", nil, nil, nil)
	wantErr(t, "a request the peer refuses", err, `cluster: peer 1: unknown peer op "bogus"`)
	// A peer that hangs up on every connection: each attempt's call fails
	// on its connection, which is closed, until the peer counts as dead.
	hangup, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hangup.Close()
	go func() {
		for {
			c, err := hangup.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	_, err = w.peerCall(7, hangup.Addr().String(), "block", storedBlock{}, nil, nil)
	if dp := (*deadPeersError)(nil); !errors.As(err, &dp) || dp.peers[0] != 7 {
		t.Errorf("a call to a peer that hangs up returned %v, want a *deadPeersError naming 7", err)
	}
	cancelled := make(chan struct{})
	close(cancelled)
	if _, err = w.peerCall(6, deadAddr(t), "block", nil, nil, cancelled); err != errCallCancelled {
		t.Errorf("a call cancelled during its retry backoff returned %v, want errCallCancelled", err)
	}

	w.Close()
	if _, err = w.peerConn(peer.peerLn.Addr().String()); err != errConnClosed {
		t.Errorf("a closed worker's dial returned %v, want errConnClosed", err)
	}
}

// TestHeartbeatStopsOnSendError: the heartbeat loop ends when a beat
// cannot be sent, not only when the worker stops.
func TestHeartbeatStopsOnSendError(t *testing.T) {
	w := masterlessWorker(t, 0, nil)
	w.conn, w.hbEvery, w.hbStop = closedConn(), time.Millisecond, make(chan struct{})
	w.heartbeatLoop() // returns only on the send error: hbStop and done stay open
}

// TestConnErrors: the RPC layer's failures, each from a deterministic
// cause.
func TestConnErrors(t *testing.T) {
	cli, _ := connPair(t, nil)
	_, err := cli.call("x", nil, nil, time.Second, nil)
	wantErr(t, "a request to a connection without a handler", err, "no request handler")
	_, err = cli.call("x", math.NaN(), nil, time.Second, nil)
	wantErr(t, "an unencodable request", err, "encoding x request")

	cli, _ = connPair(t, func(string, json.RawMessage) (any, [][]byte, error) { return "text", nil, nil })
	var sizes []float64
	_, err = cli.call("x", nil, &sizes, time.Second, nil)
	wantErr(t, "an undecodable response", err, "decoding x response")
	cli.close(errConnClosed)
	if _, err = cli.call("x", nil, nil, time.Second, nil); err != errConnClosed {
		t.Errorf("a call on a closed connection returned %v, want errConnClosed", err)
	}
	// Not yet known closed: the request's write fails and closes it.
	near, far := net.Pipe()
	far.Close()
	unread := newRPCConn(near, new(connStats))
	if _, err = unread.call("x", nil, nil, time.Second, nil); err != errConnClosed || !unread.closed {
		t.Errorf("a call whose request cannot be written returned %v (closed %v), want errConnClosed", err, unread.closed)
	}
	// A response that cannot be written closes the connection too.
	near, far = net.Pipe()
	far.Close()
	mute := newRPCConn(near, new(connStats))
	mute.serve = func(string, json.RawMessage) (any, [][]byte, error) { return nil, nil, nil }
	mute.serveReq(&frame{Kind: "req", Seq: 1, Method: "x"})
	if !mute.closed {
		t.Error("a connection whose response cannot be written stayed open")
	}

	_, err = writeFrame(new(strings.Builder), &frame{Kind: "req", Body: json.RawMessage(`{`)})
	wantErr(t, "a frame with a malformed body", err, "encoding frame")
	for ok, part := range []string{"header", "envelope"} {
		if _, err = writeFrame(&failingWriter{ok: ok}, &frame{Kind: "hb"}); err != io.ErrClosedPipe {
			t.Errorf("a frame whose %s write fails returned %v, want io.ErrClosedPipe", part, err)
		}
	}
	var f frame
	err = readFrame(strings.NewReader("\x00\x00\x00\x10\x00\x00\x00\x00{}"), &f)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame cut inside its envelope read as %v, want io.ErrUnexpectedEOF", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.HasPrefix(r.(string), "cluster: marshaling float64") {
			t.Errorf("mustJSON(NaN) panicked with %v", r)
		}
	}()
	mustJSON(math.NaN())
}

// failingWriter accepts ok writes, then fails every one after.
type failingWriter struct{ ok int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, io.ErrClosedPipe
	}
	w.ok--
	return len(p), nil
}
