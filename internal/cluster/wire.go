// Package cluster is the distributed runtime: a wire-level master/worker
// layer that executes minimr jobs across real OS processes. The master
// keeps the deterministic virtual-clock master loop of internal/runtime
// — scheduling decisions, locality classes, failure recovery are the
// in-process ones — while a cluster backend turns each task's work into
// real RPCs: workers hold their node's erasure-coded blocks, fetch
// inputs peer-to-peer (reconstructing lost blocks from k sources for
// degraded reads), run the real map/reduce functions, and pull shuffle
// partitions from each other. Real heartbeats with deadlines feed dead
// workers into the same failure/re-execution path a simulated failure
// takes. See DESIGN.md §11.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// maxFrame bounds one wire frame, envelope plus payload; a block fits
// far under it, so anything larger is a corrupt or hostile stream.
// readStep is the most readFrame allocates on a header's word alone.
const (
	maxFrame = 64 << 20
	readStep = 1 << 20
)

// frame is the single envelope every wire message travels in. Kind
// routes it: "register"/"registered"/"block" (handshake), "hb"
// (heartbeat), "event" (trace streaming), "req"/"resp" (RPCs, matched by
// Seq), "cancel" (one-way: the caller of Seq no longer wants an answer).
// The JSON envelope carries control fields only; bulk bytes — blocks,
// shuffle partitions, reduce output — follow it raw as the payload:
// Payload, then Parts unjoined. A read frame has only Payload.
type frame struct {
	Kind    string          `json:"kind"`
	Seq     uint64          `json:"seq,omitempty"`
	Method  string          `json:"method,omitempty"` // req only
	Error   string          `json:"err,omitempty"`    // resp only
	Dead    []int           `json:"dead,omitempty"`   // resp only: implicated node IDs
	Body    json.RawMessage `json:"body,omitempty"`
	Payload []byte          `json:"-"`
	Parts   [][]byte        `json:"-"`
}

func (f *frame) payloadLen() int {
	n := len(f.Payload)
	for _, p := range f.Parts {
		n += len(p)
	}
	return n
}

// writeFrame writes f as an 8-byte header (big-endian envelope length,
// then payload length), the JSON envelope, and the payload as it is, and
// returns the envelope's size. Callers serialize writes themselves.
func writeFrame(w io.Writer, f *frame) (int, error) {
	env, err := json.Marshal(f)
	if err != nil {
		return 0, fmt.Errorf("cluster: encoding frame: %w", err)
	}
	pay := f.payloadLen()
	if len(env)+pay > maxFrame {
		return 0, fmt.Errorf("cluster: frame of %d+%d bytes exceeds limit", len(env), pay)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(env)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(pay))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(env); err != nil {
		return 0, err
	}
	_, err = w.Write(f.Payload)
	for i := 0; err == nil && i < len(f.Parts); i++ {
		_, err = w.Write(f.Parts[i])
	}
	return len(env), err
}

// readFrame reads one frame into f, which must be zero. The header is
// untrusted: lengths summing past maxFrame are rejected (see readN).
func readFrame(r io.Reader, f *frame) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	envLen, payLen := binary.BigEndian.Uint32(hdr[:4]), binary.BigEndian.Uint32(hdr[4:])
	if uint64(envLen)+uint64(payLen) > maxFrame {
		return fmt.Errorf("cluster: frame of %d+%d bytes exceeds limit", envLen, payLen)
	}
	env, err := readN(r, int(envLen))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(env, f); err != nil {
		return fmt.Errorf("cluster: decoding frame: %w", err)
	}
	f.Payload, err = readN(r, int(payLen))
	return err
}

// readN reads exactly n bytes, n being a peer's claim: the buffer starts
// at no more than readStep and doubles only once it is full, so a
// connection never holds more than twice what it has sent plus one step.
func readN(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, min(n, readStep))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
}

// registerMsg is the worker's opening message: where peers can reach it.
type registerMsg struct {
	PeerAddr string `json:"peer_addr"`
}

// registeredMsg is the master's handshake reply: the worker's identity,
// the code geometry it needs for reconstruction, the real heartbeat
// period, and the directory of its node's share of every stored file. One "block" frame per directory entry follows, in order,
// carrying that block as its payload — so the frame limit bounds a
// block, not a node's whole share.
type registeredMsg struct {
	Node        int           `json:"node"`
	CodeN       int           `json:"code_n"`
	CodeK       int           `json:"code_k"`
	HeartbeatMS int           `json:"heartbeat_ms"`
	Blocks      []storedBlock `json:"blocks"`
	Err         string        `json:"err,omitempty"`
}

// storedBlock names one stored block: a registration directory entry,
// and the body of the "block" peer RPC, answered with the block as payload.
type storedBlock struct {
	File   string `json:"file"`
	Stripe int    `json:"stripe"`
	Index  int    `json:"index"`
}

// fetchSpec names one block a worker must pull from a peer (or from its
// own store when Node is itself) before mapping.
type fetchSpec struct {
	Node   int    `json:"node"`
	Addr   string `json:"addr"`
	Stripe int    `json:"stripe"`
	Index  int    `json:"index"`
}

// mapReq runs one map task ("run-map" RPC); the response body is the
// per-reducer partition sizes, a []float64 (the records stay on the
// worker until reducers pull them). Fetch is empty for node-local input,
// the block's holder for rack/remote input, or the reconstruction sources
// when Degraded. Need, when positive, is how many degraded fetches suffice
// (the code's k): the worker races every Fetch entry, decodes from the
// first Need to arrive, and cancels the rest; zero waits for all.
// "repair-block", sent to a repair's destination, has the same body less
// Job and Task: fetch every source, decode the lost block and store it.
type mapReq struct {
	Job      int         `json:"job"`
	Task     int         `json:"task"`
	File     string      `json:"file"`
	Stripe   int         `json:"stripe"`
	Index    int         `json:"index"`
	Degraded bool        `json:"degraded,omitempty"`
	Need     int         `json:"need,omitempty"`
	Fetch    []fetchSpec `json:"fetch,omitempty"`
}

// reduceReq runs one reduce task ("run-reduce" RPC) over the partitions
// it pulls from each mapper host; the response's payload is its output.
type reduceReq struct {
	Job     int        `json:"job"`
	Reducer int        `json:"reducer"`
	Hosts   []hostPull `json:"hosts,omitempty"` // in node order
}

// hostPull names a mapper host and the map tasks it ran, ascending.
type hostPull struct {
	Node  int    `json:"node"`
	Addr  string `json:"addr"` // peer address
	Tasks []int  `json:"tasks"`
}

// chunksReq pulls a reducer's partitions ("chunks" peer RPC). The answer
// is the longest prefix of Tasks that fits a frame: sizes as body, the
// buffers as payload. The caller asks again for the rest.
type chunksReq struct {
	Job     int   `json:"job"`
	Reducer int   `json:"reducer"`
	Tasks   []int `json:"tasks"`
}

// fitPrefix returns how many of sizes, taken in order, fit in limit
// bytes: zero when even the first does not.
func fitPrefix(sizes []int, limit int) int {
	for i, n := range sizes {
		if limit -= n; limit < 0 {
			return i
		}
	}
	return len(sizes)
}

// splitChunks slices a "chunks" payload by the sizes a peer sent,
// without copying. It rejects a count outside 1..asked, a negative size,
// and sizes that do not sum to the payload's length.
func splitChunks(payload []byte, sizes []int, asked int) ([][]byte, error) {
	if len(sizes) == 0 || len(sizes) > asked {
		return nil, fmt.Errorf("%d partitions for %d tasks asked", len(sizes), asked)
	}
	bufs, total := make([][]byte, len(sizes)), len(payload)
	for i, n := range sizes {
		if n < 0 || n > len(payload) || i == len(sizes)-1 && n != len(payload) {
			return nil, fmt.Errorf("partition sizes %v do not tile a %d-byte payload", sizes, total)
		}
		bufs[i], payload = payload[:n:n], payload[n:]
	}
	return bufs, nil
}

// mustJSON marshals a value this package defined; failure is a
// programming error, not a runtime condition.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshaling %T: %v", v, err))
	}
	return b
}

// deadPeersError marks an operation that failed because specific peers
// were unreachable; the RPC layer copies the IDs into the response's
// Dead field so the master can feed them into failure recovery.
type deadPeersError struct {
	peers []int
	cause error
}

func (e *deadPeersError) Error() string {
	return fmt.Sprintf("cluster: peers %v unreachable: %v", e.peers, e.cause)
}
