package cluster

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"
)

// TestLateResponseAfterTimeoutIsDropped pins the demuxer's timeout
// contract: once a call times out, its sequence number is forgotten, so
// a response arriving late must be dropped on the floor — never
// delivered to the timed-out caller's buffer, and never to a retry
// (which holds a fresh sequence number).
func TestLateResponseAfterTimeoutIsDropped(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	rc := newRPCConn(cliEnd, new(connStats))
	rc.start()
	defer rc.close(errConnClosed)

	reqs := make(chan frame, 2)
	go func() {
		for {
			var f frame
			if err := readFrame(srvEnd, &f); err != nil {
				return
			}
			if f.Kind == "req" {
				reqs <- f
			}
		}
	}()

	// Call 1: the server reads the request but never answers in time.
	var out1 struct {
		V string `json:"v"`
	}
	_, err := rc.call("slow", struct{}{}, &out1, 50*time.Millisecond, nil)
	if !errors.Is(err, errRPCTimeout) {
		t.Fatalf("err = %v, want %v", err, errRPCTimeout)
	}
	req1 := <-reqs

	// The answer lands after the timeout already deleted the waiter.
	if _, err := writeFrame(srvEnd, &frame{Kind: "resp", Seq: req1.Seq,
		Body: mustJSON(map[string]string{"v": "stale"})}); err != nil {
		t.Fatal(err)
	}

	// Call 2 (the retry): must get a fresh sequence number and see only
	// its own response. The read loop handles the stale frame first, so
	// a misrouted delivery would surface here.
	done := make(chan error, 1)
	var out2 struct {
		V string `json:"v"`
	}
	go func() {
		_, err := rc.call("slow", struct{}{}, &out2, 5*time.Second, nil)
		done <- err
	}()
	req2 := <-reqs
	if req2.Seq == req1.Seq {
		t.Fatalf("retry reused timed-out sequence number %d", req1.Seq)
	}
	if _, err := writeFrame(srvEnd, &frame{Kind: "resp", Seq: req2.Seq,
		Body: mustJSON(map[string]string{"v": "fresh"})}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retry: %v", err)
	}
	if out2.V != "fresh" {
		t.Fatalf("retry received %q, want \"fresh\"", out2.V)
	}
	if out1.V != "" {
		t.Fatalf("late response mutated the timed-out call's buffer to %q", out1.V)
	}
}

// waitFor polls a counter-style condition the test cannot block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// connPair is two started rpcConns over an in-memory pipe; srv serves
// with the given handler.
func connPair(t *testing.T, serve func(method string, body json.RawMessage) (any, [][]byte, error)) (cli, srv *rpcConn) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	cli, srv = newRPCConn(cliEnd, new(connStats)), newRPCConn(srvEnd, new(connStats))
	srv.serve = serve
	cli.start()
	srv.start()
	t.Cleanup(func() {
		cli.close(errConnClosed)
		srv.close(errConnClosed)
	})
	return cli, srv
}

// TestCancelSkipsUnstartedResponse: abandoning a call sends a cancel
// frame, and a server still computing when it arrives writes no
// response at all; the connection then serves the next call.
func TestCancelSkipsUnstartedResponse(t *testing.T) {
	release := make(chan struct{})
	cli, srv := connPair(t, func(method string, _ json.RawMessage) (any, [][]byte, error) {
		if method == "slow" {
			<-release
		}
		return nil, [][]byte{[]byte(method)}, nil
	})

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := cli.call("slow", struct{}{}, nil, time.Minute, cancel)
		done <- err
	}()
	waitFor(t, "the request to reach the server", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.serving) == 1
	})
	close(cancel)
	if err := <-done; !errors.Is(err, errCallCancelled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	// Frames are handled in order, so once this answer is back the
	// server has seen the cancel.
	if got, err := cli.call("ping", struct{}{}, nil, time.Minute, nil); err != nil || string(got) != "ping" {
		t.Fatalf("call after a cancel: %q, %v", got, err)
	}
	close(release)
	waitFor(t, "the server to skip the response", func() bool { return srv.st.snapshot().CancelsHonoured == 1 })

	if got, want := srv.st.snapshot().FramesSent, int64(1); got != want {
		t.Fatalf("server sent %d frames, want %d (the ping's response only)", got, want)
	}
	if got := cli.st.snapshot().CancelsSent; got != 1 {
		t.Fatalf("client counted %d cancel frames, want 1", got)
	}
	srv.mu.Lock()
	left := len(srv.serving)
	srv.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d requests still marked as being served", left)
	}
}

// TestCancelForAnsweredSeqIsNoOp: a cancel that loses the race with its
// response finds nothing to cancel and changes nothing.
func TestCancelForAnsweredSeqIsNoOp(t *testing.T) {
	cli, srv := connPair(t, func(method string, _ json.RawMessage) (any, [][]byte, error) {
		return nil, [][]byte{[]byte(method)}, nil
	})
	if _, err := cli.call("one", struct{}{}, nil, time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 99} { // answered, and never issued
		if err := cli.send(&frame{Kind: "cancel", Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cli.call("two", struct{}{}, nil, time.Minute, nil)
	if err != nil || string(got) != "two" {
		t.Fatalf("call after stale cancels: %q, %v", got, err)
	}
	srv.mu.Lock()
	left := len(srv.serving)
	srv.mu.Unlock()
	if st := srv.st.snapshot(); st.CancelsHonoured != 0 || st.FramesSent != 2 || left != 0 {
		t.Fatalf("stale cancels had an effect: %+v, %d entries left", st, left)
	}
}

// TestLoserLateResponseIsDropped: the far side may already be writing
// when the cancel arrives. The loser's response — payload and all — must
// die in the demux, and the next call on the connection must see only
// its own answer.
func TestLoserLateResponseIsDropped(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	cli := newRPCConn(cliEnd, new(connStats))
	cli.start()
	defer cli.close(errConnClosed)

	frames := make(chan frame, 3) // request, cancel, request
	go func() {
		for {
			var f frame
			if err := readFrame(srvEnd, &f); err != nil {
				return
			}
			frames <- f
		}
	}()

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := cli.call("block", struct{}{}, nil, time.Minute, cancel)
		done <- err
	}()
	req1 := <-frames
	close(cancel)
	if err := <-done; !errors.Is(err, errCallCancelled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if c := <-frames; c.Kind != "cancel" || c.Seq != req1.Seq {
		t.Fatalf("expected a cancel for seq %d, got %+v", req1.Seq, c)
	}
	if _, err := writeFrame(srvEnd, &frame{Kind: "resp", Seq: req1.Seq, Payload: []byte("loser")}); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		payload []byte
		err     error
	}
	next := make(chan answer, 1)
	go func() {
		p, err := cli.call("block", struct{}{}, nil, time.Minute, nil)
		next <- answer{p, err}
	}()
	req2 := <-frames
	if req2.Seq == req1.Seq {
		t.Fatalf("sequence number %d reused after a cancel", req1.Seq)
	}
	if _, err := writeFrame(srvEnd, &frame{Kind: "resp", Seq: req2.Seq, Payload: []byte("winner")}); err != nil {
		t.Fatal(err)
	}
	if a := <-next; a.err != nil || string(a.payload) != "winner" {
		t.Fatalf("next call got %q, %v", a.payload, a.err)
	}
	if got := cli.st.snapshot().PayloadBytesReceived; got != int64(len("loser")+len("winner")) {
		t.Fatalf("received %d payload bytes, want both responses read off the wire", got)
	}
}
