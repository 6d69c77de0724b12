package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

func startLoopback(t *testing.T, fs *dfs.FS, sink trace.Sink) *Local {
	t.Helper()
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         engineOpts(sink),
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// stripeFetch lists every block of stripe 0 except `lost` as fetch
// specs against the loopback cluster's workers.
func stripeFetch(t *testing.T, l *Local, fs *dfs.FS, lost int) []fetchSpec {
	t.Helper()
	file, err := fs.File("input.txt")
	if err != nil {
		t.Fatal(err)
	}
	var fetch []fetchSpec
	for i, h := range file.Placement.StripeHolders(0) {
		if i != lost {
			fetch = append(fetch, fetchSpec{Node: int(h), Addr: l.Master.workerAddr(h), Stripe: 0, Index: i})
		}
	}
	return fetch
}

// TestHedgedRaceKeepsPoolUsable: a first-k-wins fan-in cancels its
// loser by abandoning the call, not the connection — so the race dials
// each source once, and every pooled connection, the loser's included,
// serves later fetches without another dial.
func TestHedgedRaceKeepsPoolUsable(t *testing.T) {
	fs, _ := testbedFS(t, 8)
	l := startLoopback(t, fs, nil)
	const lost = 4
	fetch := stripeFetch(t, l, fs, lost) // 11 sources for a k=10 decode
	file, _ := fs.File("input.txt")
	w := l.workers[file.Placement.StripeHolders(0)[lost]]
	want, err := fs.ReadBlock("input.txt", erasure.BlockID{Stripe: 0, Index: lost})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		got, err := w.reconstruct(&mapReq{File: "input.txt", Index: lost, Need: 10, Fetch: fetch})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: first-10-of-11 decode differs from the stored block", round)
		}
		// The loser may still be dialling when its race is over.
		if st := w.stats.snapshot(); st.PeerDials > int64(len(fetch)) {
			t.Fatalf("round %d: %d peer dials, want at most one per source (%d)", round, st.PeerDials, len(fetch))
		}
	}
	// Whichever source lost each race, its connection still answers.
	for _, f := range fetch {
		if _, err := w.fetchBlock("input.txt", f, nil); err != nil {
			t.Fatalf("fetch from node %d after the races: %v", f.Node, err)
		}
	}
	st := w.stats.snapshot()
	if st.PeerDials != int64(len(fetch)) || st.CancelsSent > 3 {
		t.Fatalf("after the races: %+v; want %d dials and at most one cancel per race", st, len(fetch))
	}
}

// TestKillPeerMidFetchEvictsAndNamesIt: a peer that dies with a fetch in
// flight fails the call, loses its pool entry, and — the redial finding
// nobody — surfaces as *deadPeersError naming that peer.
func TestKillPeerMidFetchEvictsAndNamesIt(t *testing.T) {
	fs, _ := testbedFS(t, 9)
	l := startLoopback(t, fs, nil)
	fetch := stripeFetch(t, l, fs, -1)
	w := l.workers[topology.NodeID(fetch[0].Node)]
	victim := l.workers[topology.NodeID(fetch[1].Node)]

	if _, err := w.fetchBlock("input.txt", fetch[1], nil); err != nil {
		t.Fatal(err)
	}
	w.pmu.Lock()
	slot := w.pool[fetch[1].Addr]
	w.pmu.Unlock()
	slot.mu.Lock()
	pooled := slot.rc
	slot.mu.Unlock()
	if pooled == nil {
		t.Fatal("no pooled connection after a successful fetch")
	}

	// Hold the victim's store lock so the next fetch is stuck inside it.
	victim.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := w.fetchBlock("input.txt", fetch[1], nil)
		done <- err
	}()
	waitFor(t, "the fetch to be in flight", func() bool {
		pooled.mu.Lock()
		defer pooled.mu.Unlock()
		return len(pooled.pending) == 1
	})
	victim.Close()
	victim.mu.Unlock()

	err := <-done
	var dp *deadPeersError
	if !errors.As(err, &dp) || !reflect.DeepEqual(dp.peers, []int{fetch[1].Node}) {
		t.Fatalf("fetch from a killed peer returned %v, want *deadPeersError naming node %d", err, fetch[1].Node)
	}
	slot.mu.Lock()
	left := slot.rc
	slot.mu.Unlock()
	w.pmu.Lock()
	_, tracked := w.conns[pooled]
	w.pmu.Unlock()
	if left != nil || tracked {
		t.Fatalf("dead connection still pooled (%v) or tracked (%v)", left != nil, tracked)
	}
	// The other peers are unaffected.
	if _, err := w.fetchBlock("input.txt", fetch[2], nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrationIsOneFramePerBlock: a node's share arrives as the
// registered envelope (a directory, no data) and then one frame per
// block, so no frame grows with the share and the frame limit bounds a
// block, not a node.
func TestRegistrationIsOneFramePerBlock(t *testing.T) {
	fs, _ := testbedFS(t, 10)
	m, err := NewMaster(fs, MasterOptions{Engine: engineOpts(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := writeFrame(c, &frame{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: "127.0.0.1:1"})}); err != nil {
		t.Fatal(err)
	}

	in := &countingReader{r: c}
	var reg frame
	if err := readFrame(in, &reg); err != nil || reg.Kind != "registered" {
		t.Fatalf("first frame: kind %q, err %v", reg.Kind, err)
	}
	var msg registeredMsg
	if err := json.Unmarshal(reg.Body, &msg); err != nil {
		t.Fatal(err)
	}
	contents := fs.NodeContents(topology.NodeID(msg.Node))
	if len(msg.Blocks) != len(contents) || len(contents) == 0 {
		t.Fatalf("directory lists %d blocks, node holds %d", len(msg.Blocks), len(contents))
	}
	if len(reg.Payload) != 0 || in.n > 8+256+64*len(contents) {
		t.Fatalf("registered frame is %d bytes with %d of payload for %d blocks", in.n, len(reg.Payload), len(contents))
	}
	for i, sb := range contents {
		before := in.n
		var bf frame
		if err := readFrame(in, &bf); err != nil || bf.Kind != "block" {
			t.Fatalf("block frame %d: kind %q, err %v", i, bf.Kind, err)
		}
		if !bytes.Equal(bf.Payload, sb.Data) {
			t.Fatalf("block frame %d does not carry %s %v", i, sb.File, sb.Block)
		}
		if d := msg.Blocks[i]; d.File != sb.File || d.Stripe != sb.Block.Stripe || d.Index != sb.Block.Index {
			t.Fatalf("directory entry %d is %+v, frame carries %s %v", i, d, sb.File, sb.Block)
		}
		if size := in.n - before; size > fs.BlockSize()+64 {
			t.Fatalf("block frame %d is %d bytes on the wire for a %d-byte block", i, size, fs.BlockSize())
		}
	}
	if st := m.stats.snapshot(); st.FramesSent != int64(len(contents)+1) {
		t.Fatalf("registration of %d blocks took %d frames, want %d", len(contents), st.FramesSent, len(contents)+1)
	}
}

// TestLoopbackCountsNotClocks holds the wire format and the pool to
// counts on the benchmark's job mix: connections are dialled at most
// once per ordered worker pair, a reducer pulls each mapper host's
// partitions once, payload bytes are exactly the blocks and record
// buffers that moved — nothing inflates them — and no JSON envelope
// outgrows a few KB.
func TestLoopbackCountsNotClocks(t *testing.T) {
	fs, _ := testbedFS(t, 1)
	fs.Cluster().FailNode(3)
	mem := &trace.Memory{}
	l := startLoopback(t, fs, mem)
	const reducers = 8
	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: reducers},
		{Kind: "grep", Input: "input.txt", Word: "whale", NumReducers: reducers, SubmitAt: 1},
		{Kind: "linecount", Input: "input.txt", NumReducers: reducers, SubmitAt: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	var want int64
	alive := fs.Cluster().AliveNodes()
	for _, id := range alive {
		for _, sb := range fs.NodeContents(id) {
			want += int64(len(sb.Data)) // registration
		}
	}
	// Nothing fails mid-run, so every map finishes once, and each
	// reducer pulls once from each node that ran some of its job's maps.
	type pullKey struct{ job, reducer, host int }
	hosts := make(map[[2]int]bool) // job, node
	pulls := make(map[pullKey]int)
	pulled := make(map[[2]int]int) // job, reducer → partitions
	for _, e := range mem.Events() {
		switch e.Type {
		case trace.EvTaskFinish:
			hosts[[2]int{e.Job, e.Node}] = true
		case trace.EvWireShuffle:
			pulls[pullKey{e.Job, e.Task, e.Src}]++
			pulled[[2]int{e.Job, e.Task}] += e.N
		}
		if e.Type == trace.EvWireFetch || e.Type == trace.EvWireShuffle && e.Src != e.Node {
			want += int64(e.Bytes) // blocks and partitions pulled from peers
		}
	}
	for key, n := range pulls {
		if n != 1 || !hosts[[2]int{key.job, key.host}] {
			t.Errorf("job %d reducer %d pulled %d times from node %d, which ran %v of its maps",
				key.job, key.reducer, n, key.host, hosts[[2]int{key.job, key.host}])
		}
	}
	if len(pulls) != reducers*len(hosts) {
		t.Errorf("%d pulls, want one per reducer and mapper host: %d", len(pulls), reducers*len(hosts))
	}
	for key, n := range pulled {
		if n != testBlocks {
			t.Errorf("job %d reducer %d pulled %d partitions, want %d", key[0], key[1], n, testBlocks)
		}
	}
	for _, out := range rep.Outputs {
		for k, v := range out {
			want += int64(len(minimr.RecordBuf(nil).Append(k, v))) // reduce output returned to the master
		}
	}

	total := l.Master.stats.snapshot()
	for _, id := range alive {
		st := l.workers[id].stats.snapshot()
		if st.MaxEnvelopeBytes > 4096 {
			t.Errorf("worker %d sent a %d-byte JSON envelope", id, st.MaxEnvelopeBytes)
		}
		total.PeerDials += st.PeerDials
		total.PayloadBytesSent += st.PayloadBytesSent
		total.PayloadBytesReceived += st.PayloadBytesReceived
	}
	if total.MaxEnvelopeBytes > 4096 {
		t.Errorf("master sent a %d-byte JSON envelope", total.MaxEnvelopeBytes)
	}
	t.Logf("%d peer dials, %d pulls, %d payload bytes, master's largest envelope %d bytes",
		total.PeerDials, len(pulls), want, total.MaxEnvelopeBytes)
	if n := int64(len(alive)); total.PeerDials > n*(n-1) || total.PeerDials == 0 {
		t.Errorf("%d peer dials among %d workers, want 1..%d", total.PeerDials, n, n*(n-1))
	}
	if total.PayloadBytesSent != want || total.PayloadBytesReceived != want {
		t.Errorf("payload bytes sent %d / received %d, want exactly the %d bytes of blocks and record buffers moved",
			total.PayloadBytesSent, total.PayloadBytesReceived, want)
	}
}

// fakeMapper serves "chunks" peer RPCs with answer and returns its
// address.
func fakeMapper(t *testing.T, answer func(req *chunksReq) (any, [][]byte, error)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			rc := newRPCConn(c, new(connStats))
			rc.serve = func(_ string, body json.RawMessage) (any, [][]byte, error) { return handle(body, answer) }
			rc.start()
		}
	}()
	return ln.Addr().String()
}

// TestPullHostAsksAgain: a mapper that answers one partition at a time
// is asked again for the rest, and the partitions come back in order.
func TestPullHostAsksAgain(t *testing.T) {
	var asked [][]int
	addr := fakeMapper(t, func(req *chunksReq) (any, [][]byte, error) {
		asked = append(asked, req.Tasks)
		part := minimr.RecordBuf(nil).Append("task", strconv.Itoa(req.Tasks[0]))
		return []int{len(part)}, [][]byte{part}, nil
	})
	w := masterlessWorker(t, 0, nil)
	bufs, err := w.pullHost(0, 0, hostPull{Node: 5, Addr: addr, Tasks: []int{4, 6, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range []string{"4", "6", "9"} {
		if want := minimr.RecordBuf(nil).Append("task", task); !bytes.Equal(bufs[i], want) {
			t.Errorf("partition %d is %q, want %q", i, bufs[i], want)
		}
	}
	if !reflect.DeepEqual(asked, [][]int{{4, 6, 9}, {6, 9}, {9}}) {
		t.Fatalf("asked %v, want each rest once", asked)
	}
}

// TestPullHostRejectsUntrustedSizes: partition sizes that do not fit
// the tasks asked or the payload fail the pull with an error naming the
// mapper, which is not a dead-peer error: the peer answered.
func TestPullHostRejectsUntrustedSizes(t *testing.T) {
	for _, c := range []struct {
		sizes   []int
		payload string
	}{
		{[]int{1, 1, 1}, "abc"},
		{[]int{-1, 3}, "ab"},
		{[]int{1, 1}, "abc"},
		{nil, ""},
	} {
		addr := fakeMapper(t, func(*chunksReq) (any, [][]byte, error) {
			return c.sizes, [][]byte{[]byte(c.payload)}, nil
		})
		w := masterlessWorker(t, 0, nil)
		_, err := w.pullHost(0, 0, hostPull{Node: 5, Addr: addr, Tasks: []int{1, 2}})
		var dp *deadPeersError
		if err == nil || errors.As(err, &dp) || !strings.Contains(err.Error(), "node 5") {
			t.Errorf("sizes %v over %q: %v, want an error naming node 5 that is not a dead peer", c.sizes, c.payload, err)
		}
	}
}
