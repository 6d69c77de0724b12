package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

var (
	// errConnClosed fails calls whose connection died first.
	errConnClosed = errors.New("cluster: connection closed")
	// errRPCTimeout fails calls that outlived their deadline.
	errRPCTimeout = errors.New("cluster: rpc timed out")
	// errCallCancelled fails a call its caller abandoned (a hedged race
	// already won); never a peer-health signal.
	errCallCancelled = errors.New("cluster: call cancelled")
)

// remoteError is a failure string reported by the far side of an RPC,
// with the node IDs it implicates (empty for plain application errors).
type remoteError struct {
	method string
	msg    string
	dead   []int
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("cluster: %s: %s", e.method, e.msg)
}

// Stats counts what one Master's or Worker's connections did; tests hold
// the wire format and the peer pool to these counts, not to clocks.
type Stats struct {
	PeerDials int64 // worker↔worker connections this worker opened
	// Payload bytes are the raw bytes after envelopes: blocks and
	// record buffers only.
	FramesSent                             int64
	PayloadBytesSent, PayloadBytesReceived int64
	MaxEnvelopeBytes                       int64 // largest JSON envelope sent
	// CancelsHonoured counts responses skipped because the cancel
	// arrived before this side began writing them.
	CancelsSent, CancelsHonoured int64
}

// connStats is Stats while live, shared by all of a process's connections.
type connStats struct {
	mu sync.Mutex
	Stats
}

func (s *connStats) add(update func(*Stats)) {
	s.mu.Lock()
	update(&s.Stats)
	s.mu.Unlock()
}

func (s *connStats) snapshot() (out Stats) {
	s.add(func(st *Stats) { out = *st })
	return out
}

// rpcConn multiplexes one persistent connection: concurrent outgoing
// calls (matched to responses by sequence number), incoming requests
// (served on their own goroutines via serve), and one-way frames such as
// heartbeats and trace events (routed to notify). Both directions share
// the connection, so a worker can serve run-map while its heartbeats
// keep flowing. Master↔worker and worker↔worker links are both rpcConns.
type rpcConn struct {
	c  net.Conn
	br *bufio.Reader
	st *connStats

	wmu sync.Mutex // serializes writeFrame on bw
	bw  *bufio.Writer

	// serve handles an incoming request and returns the response body
	// (nil for an empty ack) and the buffers that make its payload; nil
	// rejects all requests. It runs on a fresh goroutine per request.
	serve func(method string, body json.RawMessage) (resp any, payload [][]byte, err error)
	// notify receives non-RPC frames (hb, event); may be nil. It runs on
	// the reader goroutine, so it must not block.
	notify func(f *frame)
	// onClose runs once when the connection dies, after pending calls
	// fail; may be nil.
	onClose func(err error)

	mu      sync.Mutex
	pending map[uint64]chan *frame
	// serving holds the incoming requests not yet answered; the value
	// turns true when the caller cancelled one.
	serving map[uint64]bool
	nextSeq uint64
	closed  bool
	done    chan struct{}
}

func newRPCConn(c net.Conn, st *connStats) *rpcConn {
	return &rpcConn{
		c:       c,
		br:      bufio.NewReader(c),
		bw:      bufio.NewWriter(c),
		st:      st,
		pending: make(map[uint64]chan *frame),
		serving: make(map[uint64]bool),
		done:    make(chan struct{}),
	}
}

// start launches the reader loop. Set serve/notify/onClose first.
func (rc *rpcConn) start() { go rc.readLoop() }

// recv reads one frame; the handshakes call it before start.
func (rc *rpcConn) recv(f *frame) error {
	if err := readFrame(rc.br, f); err != nil {
		return err
	}
	rc.st.add(func(st *Stats) {
		st.PayloadBytesReceived += int64(len(f.Payload))
	})
	return nil
}

func (rc *rpcConn) readLoop() {
	for {
		f := new(frame)
		if err := rc.recv(f); err != nil {
			rc.close(err)
			return
		}
		switch f.Kind {
		case "resp":
			// A response nobody waits for (its call timed out or was
			// cancelled) is dropped here.
			if ch := rc.forget(f.Seq); ch != nil {
				ch <- f
			}
		case "req":
			rc.mu.Lock()
			rc.serving[f.Seq] = false
			rc.mu.Unlock()
			go rc.serveReq(f)
		case "cancel":
			rc.mu.Lock()
			if _, unanswered := rc.serving[f.Seq]; unanswered {
				rc.serving[f.Seq] = true
			}
			rc.mu.Unlock()
		default:
			if rc.notify != nil {
				rc.notify(f)
			}
		}
	}
}

// forget removes and returns a pending call's channel (nil if none).
func (rc *rpcConn) forget(seq uint64) chan *frame {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ch := rc.pending[seq]
	delete(rc.pending, seq)
	return ch
}

// serveReq runs one incoming request through the serve handler and
// writes the response, copying implicated peers into the Dead field. A
// request cancelled before its response starts going out gets none.
func (rc *rpcConn) serveReq(f *frame) {
	resp := &frame{Kind: "resp", Seq: f.Seq}
	if rc.serve == nil {
		resp.Error = "no request handler"
	} else if out, payload, err := rc.serve(f.Method, f.Body); err != nil {
		resp.Error = err.Error()
		var dp *deadPeersError
		if errors.As(err, &dp) {
			resp.Dead = dp.peers
		}
	} else {
		resp.Parts = payload
		if out != nil {
			resp.Body = mustJSON(out)
		}
	}
	rc.mu.Lock()
	cancelled := rc.serving[f.Seq]
	delete(rc.serving, f.Seq)
	rc.mu.Unlock()
	if cancelled {
		rc.st.add(func(st *Stats) { st.CancelsHonoured++ })
		return
	}
	if err := rc.send(resp); err != nil {
		rc.close(err)
	}
}

// send writes one frame, serialized against concurrent senders.
func (rc *rpcConn) send(f *frame) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	env, err := writeFrame(rc.bw, f)
	if err != nil {
		return err
	}
	rc.st.add(func(st *Stats) {
		st.FramesSent++
		st.PayloadBytesSent += int64(f.payloadLen())
		st.MaxEnvelopeBytes = max(st.MaxEnvelopeBytes, int64(env))
	})
	return rc.bw.Flush()
}

// call performs one RPC: req is marshaled as the request body, the
// response body (if any) is unmarshaled into resp (may be nil) and the
// response payload returned. Closing cancel (nil never cancels) abandons
// the call: its seq is forgotten, so a late response is dropped, and a
// cancel frame lets the far side skip answering. Returns *remoteError
// for far-side failures, else errRPCTimeout/ConnClosed/CallCancelled.
func (rc *rpcConn) call(method string, req, resp any, timeout time.Duration, cancel <-chan struct{}) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding %s request: %w", method, err)
	}

	ch := make(chan *frame, 1)
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil, errConnClosed
	}
	rc.nextSeq++
	seq := rc.nextSeq
	rc.pending[seq] = ch
	rc.mu.Unlock()

	if err := rc.send(&frame{Kind: "req", Seq: seq, Method: method, Body: body}); err != nil {
		rc.forget(seq)
		rc.close(err)
		return nil, errConnClosed
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f := <-ch:
		if f.Error != "" {
			return nil, &remoteError{method: method, msg: f.Error, dead: f.Dead}
		}
		if resp != nil && len(f.Body) > 0 {
			if err := json.Unmarshal(f.Body, resp); err != nil {
				return nil, fmt.Errorf("cluster: decoding %s response: %w", method, err)
			}
		}
		return f.Payload, nil
	case <-timer.C:
		rc.forget(seq)
		return nil, fmt.Errorf("%w: %s after %v", errRPCTimeout, method, timeout)
	case <-cancel:
		rc.forget(seq)
		if rc.send(&frame{Kind: "cancel", Seq: seq}) == nil {
			rc.st.add(func(st *Stats) { st.CancelsSent++ })
		}
		return nil, errCallCancelled
	case <-rc.done:
		return nil, errConnClosed
	}
}

// close tears the connection down once: pending calls fail (each waits
// on done too), the underlying conn is closed, and onClose fires.
func (rc *rpcConn) close(err error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return
	}
	rc.closed = true
	close(rc.done)
	rc.mu.Unlock()

	rc.c.Close() // best-effort: the peer may have closed first
	if rc.onClose != nil {
		rc.onClose(err)
	}
}
