package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{Kind: "hb"},
		{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: "127.0.0.1:9"})},
		{Kind: "req", Seq: 42, Method: "run-map", Body: mustJSON(mapReq{Job: 1, Task: 7, File: "input.txt", Degraded: true,
			Fetch: []fetchSpec{{Node: 3, Addr: "a", Stripe: 2, Index: 11}}})},
		{Kind: "resp", Seq: 42, Error: "boom", Dead: []int{3, 5}},
		{Kind: "resp", Seq: 43, Body: mustJSON([]float64{1, 2}), Payload: []byte("\x05whale\x011")},
		{Kind: "block", Payload: bytes.Repeat([]byte{0xab, 0x00, '"'}, 70000)},
	}
	for _, in := range cases {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, &in); err != nil {
			t.Fatalf("write %q: %v", in.Kind, err)
		}
		var out frame
		if err := readFrame(&buf, &out); err != nil {
			t.Fatalf("read %q: %v", in.Kind, err)
		}
		// Compare through JSON: RawMessage formatting may differ.
		var a, b any
		if err := json.Unmarshal(mustJSON(in), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(mustJSON(out), &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !bytes.Equal(in.Payload, out.Payload) {
			t.Fatalf("round trip changed frame %q:\n in: %+v\nout: %+v", in.Kind, in, out)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	huge := frame{Kind: "event", Body: mustJSON(strings.Repeat("x", maxFrame))}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &huge); err == nil {
		t.Fatal("writeFrame accepted an oversized frame")
	}

	// A hostile length prefix must be rejected before allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	var f frame
	if err := readFrame(bytes.NewReader(hdr), &f); err == nil {
		t.Fatal("readFrame accepted a hostile length prefix")
	}
	// Each length alone is legal; only their sum is not.
	binary.BigEndian.PutUint32(hdr[:4], maxFrame/2+1)
	binary.BigEndian.PutUint32(hdr[4:], maxFrame/2)
	if err := readFrame(bytes.NewReader(hdr), &f); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("readFrame accepted lengths summing past the limit: %v", err)
	}
	if _, err := writeFrame(&buf, &frame{Kind: "block", Payload: make([]byte, maxFrame)}); err == nil {
		t.Fatal("writeFrame accepted envelope + payload past the limit")
	}
}

// TestReadFrameAllocatesAsBytesArrive: a header may claim 64 MiB, but
// the reader must not take its word — memory follows the bytes that
// actually arrive.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	env := mustJSON(frame{Kind: "block"})
	hostile := make([]byte, 8, 8+len(env)+100)
	binary.BigEndian.PutUint32(hostile[:4], uint32(len(env)))
	binary.BigEndian.PutUint32(hostile[4:], maxFrame-uint32(len(env)))
	hostile = append(append(hostile, env...), make([]byte, 100)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var f frame
	err := readFrame(bytes.NewReader(hostile), &f)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("readFrame returned a frame the stream never finished")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*readStep {
		t.Fatalf("a 100-byte payload claiming %d bytes cost %d bytes of allocation", maxFrame, got)
	}

	// An honest large payload still arrives whole, through the doubling.
	big := frame{Kind: "block", Payload: bytes.Repeat([]byte("0123456789abcdef"), 3*readStep/16+1)}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &big); err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := readFrame(&buf, &out); err != nil || !bytes.Equal(out.Payload, big.Payload) {
		t.Fatalf("large payload did not survive: err %v, %d of %d bytes", err, len(out.Payload), len(big.Payload))
	}
}

// countingReader counts the bytes handed out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic, never hold more than the bytes received plus one (doubling)
// step, and whatever it accepts must survive write→read→write
// byte-identically.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []frame{
		{Kind: "hb"},
		{Kind: "resp", Seq: 7, Payload: []byte("\x05whale\x011")},
		{Kind: "req", Seq: 1, Method: "block", Body: mustJSON(storedBlock{File: "input.txt", Stripe: 2, Index: 11})},
	} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0x03, 0xff, 0xff, 0xff, '{', '}', 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &countingReader{r: bytes.NewReader(data)}
		var fr frame
		if err := readFrame(in, &fr); err != nil {
			return
		}
		if held := cap(fr.Payload) + cap(fr.Body); held > 2*in.n+readStep {
			t.Fatalf("holding %d bytes after receiving %d", held, in.n)
		}
		var first, second bytes.Buffer
		if _, err := writeFrame(&first, &fr); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		var again frame
		if err := readFrame(bytes.NewReader(first.Bytes()), &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if _, err := writeFrame(&second, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write changed the frame:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

// TestFitPrefix: a "chunks" answer carries the longest prefix of the
// asked partitions that fits, so the asker makes progress with every
// answer, unless one partition alone is past the limit.
func TestFitPrefix(t *testing.T) {
	for _, c := range []struct {
		name  string
		sizes []int
		want  int
	}{
		{"oversized alone", []int{9}, 0},
		{"oversized first", []int{9, 1}, 0},
		{"oversized later", []int{3, 9, 1}, 1},
		{"exact fit", []int{3, 5}, 2},
		{"one byte over", []int{3, 6}, 1},
		{"empty partitions", []int{0, 8, 0}, 3},
		{"nothing asked", nil, 0},
	} {
		if got := fitPrefix(c.sizes, 8); got != c.want {
			t.Errorf("%s: fitPrefix(%v, 8) = %d, want %d", c.name, c.sizes, got, c.want)
		}
	}
	// Five partitions of 3 bytes under a limit of 7 take three answers.
	var answers []int
	for rest := []int{3, 3, 3, 3, 3}; len(rest) > 0; {
		n := fitPrefix(rest, 7)
		answers = append(answers, n)
		rest = rest[n:]
	}
	if !reflect.DeepEqual(answers, []int{2, 2, 1}) {
		t.Fatalf("answers carried %v partitions, want [2 2 1]", answers)
	}
}

// TestSplitChunksRejectsUntrustedSizes: the sizes come from a peer; a
// wrong count, a negative size, or sizes that miss the payload's length
// are errors, and a good answer aliases the payload.
func TestSplitChunksRejectsUntrustedSizes(t *testing.T) {
	payload := []byte("abcdefgh")
	for _, c := range []struct {
		sizes []int
		asked int
	}{
		{nil, 2},
		{[]int{2, 2, 4}, 2},
		{[]int{10, -2}, 2},
		{[]int{5, -1, 4}, 3},
		{[]int{2, 2}, 2},
		{[]int{8, 1}, 2},
	} {
		if bufs, err := splitChunks(payload, c.sizes, c.asked); err == nil {
			t.Errorf("sizes %v for %d tasks accepted as %q", c.sizes, c.asked, bufs)
		}
	}
	bufs, err := splitChunks(payload, []int{3, 0, 5}, 4)
	if err != nil || len(bufs) != 3 || string(bufs[0]) != "abc" || len(bufs[1]) != 0 || string(bufs[2]) != "defgh" {
		t.Fatalf("splitChunks = %q, %v", bufs, err)
	}
	if &bufs[2][0] != &payload[3] || cap(bufs[0]) != 3 {
		t.Fatal("partitions do not alias the payload, capacity-clipped")
	}
}

// FuzzChunkSizes feeds arbitrary sizes (as the JSON body a peer sends)
// and payloads to splitChunks: it must never panic, and what it accepts
// must be 1..asked partitions that tile the payload in order.
func FuzzChunkSizes(f *testing.F) {
	f.Add([]byte("[3,0,5]"), []byte("abcdefgh"), 3)
	f.Add([]byte("[10,-2]"), []byte("abcdefgh"), 2)
	f.Add([]byte("[]"), []byte{}, 1)
	f.Add([]byte("[9223372036854775807,1]"), []byte("ab"), 2)
	f.Fuzz(func(t *testing.T, body, payload []byte, asked int) {
		var sizes []int
		if json.Unmarshal(body, &sizes) != nil {
			return
		}
		bufs, err := splitChunks(payload, sizes, asked)
		if err != nil {
			return
		}
		if len(bufs) == 0 || len(bufs) > asked {
			t.Fatalf("%d partitions accepted for %d tasks asked", len(bufs), asked)
		}
		off := 0
		for i, b := range bufs {
			if len(b) != sizes[i] || cap(b) != len(b) || !bytes.Equal(b, payload[off:off+len(b)]) {
				t.Fatalf("partition %d is not payload[%d:%d]", i, off, off+sizes[i])
			}
			off += len(b)
		}
		if off != len(payload) {
			t.Fatalf("partitions cover %d of %d payload bytes", off, len(payload))
		}
	})
}

func TestFrameStreamsSequentially(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		f := frame{Kind: "req", Seq: uint64(i), Method: "jobs"}
		if _, err := writeFrame(&buf, &f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var f frame
		if err := readFrame(&buf, &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d read out of order (seq %d)", i, f.Seq)
		}
	}
}

// TestPeerErrorMessages pins the messages of the two peer errors: a
// failure the far side of an RPC reported, and peers a worker could not
// reach. The RPC layer ships the second's text in a response's Error.
func TestPeerErrorMessages(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{&remoteError{method: "fetch-block", msg: "no block s3/b1", dead: []int{4}}, "cluster: fetch-block: no block s3/b1"},
		{&deadPeersError{peers: []int{2, 5}, cause: errors.New("connection refused")}, "cluster: peers [2 5] unreachable: connection refused"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%T message %q, want %q", c.err, got, c.want)
		}
	}
}
