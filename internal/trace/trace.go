// Package trace is the structured event layer of the cluster runtime:
// every lifecycle transition of a run — job submission, task scheduling
// decisions, transfers, degraded reads, shuffle, reduce processing,
// heartbeats — is emitted as a typed Event to a pluggable Sink. The
// per-task metrics (Result, the Table I breakdown) and the ASCII timeline
// are consumers of this stream rather than ad-hoc bookkeeping, so a
// recorded trace reconstructs them exactly. Beyond the paper's aggregate
// figures, the stream supports the per-request latency analyses of the
// MDS-queue line of work.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Type names one lifecycle event kind.
type Type string

// Event types emitted by the cluster runtime.
const (
	// EvRunStart opens a run; Name carries the scheduler name.
	EvRunStart Type = "run-start"
	// EvNodeFail marks a node failure (T=0 for pre-run failures).
	EvNodeFail Type = "node-fail"
	// EvJobSubmit enters a job into the job queue; N is its map count.
	EvJobSubmit Type = "job-submit"
	// EvJobQueued marks the job entering the job-scheduler queue (same
	// instant as its submission); Name carries the job's tenant. Closed
	// by EvJobGrant (first map-slot grant) or, for jobs that never get
	// one, EvJobFinish.
	EvJobQueued Type = "job-queued"
	// EvJobGrant marks a job's first map-slot grant: Node is the
	// granting slave, Name the tenant. T minus the matching EvJobQueued
	// T is the job's queueing delay (Result.Jobs[i].QueueDelay).
	EvJobGrant Type = "job-grant"
	// EvTaskLaunch is one scheduler decision, which starts the map task
	// on its node at once: job/task assigned to a node with a locality
	// class. The golden backend-equivalence test compares these sequences.
	EvTaskLaunch Type = "task-launch"
	// EvDegradedPlan records a planned degraded read: N sources, Bytes
	// total download volume. Exactly one per degraded task launch.
	EvDegradedPlan Type = "degraded-read-planned"
	// EvFlowLatency records one degraded-read source flow's outcome under
	// an active hedge policy. Dur is the flow's observed latency (start to
	// completion, or start to cancellation for losers), Src the source
	// node, N the flow ID. Class is "won" for a flow whose bytes fed the
	// reconstruction and "lost" for a redundant flow cancelled after the
	// first k completed; for lost flows Bytes is the wasted volume already
	// moved. Emitted only when a hedge policy is active.
	EvFlowLatency Type = "flow-latency"
	// EvHedgeLaunch records a hedge: a standby source launched because an
	// in-flight flow exceeded its percentile deadline. Src is the standby
	// source node, Bytes its read volume, N the flow ID of the slow flow
	// being hedged, Dur the deadline that was exceeded (virtual seconds).
	// Emitted only when a hedge policy is active.
	EvHedgeLaunch Type = "hedge-launch"
	// EvMapStart begins map processing (input ready); for a degraded task
	// it closes the degraded read (its first k sources have arrived).
	EvMapStart Type = "map-start"
	// EvTaskFinish completes a map task.
	EvTaskFinish Type = "task-finish"
	// EvTaskRequeue returns a task to the pending pool (failure recovery).
	EvTaskRequeue Type = "task-requeue"
	// EvMapPhaseEnd closes a job's map phase.
	EvMapPhaseEnd Type = "map-phase-end"
	// EvReduceLaunch assigns a reduce task (Task is the reducer index).
	EvReduceLaunch Type = "reduce-launch"
	// EvReduceStart begins reduce processing; Bytes is the shuffle volume
	// received.
	EvReduceStart Type = "reduce-start"
	// EvReduceFinish completes a reduce task.
	EvReduceFinish Type = "reduce-finish"
	// EvReduceReset restarts a reducer lost to a node failure.
	EvReduceReset Type = "reduce-reset"
	// EvJobFinish completes a job.
	EvJobFinish Type = "job-finish"
	// EvTransferStart begins a network flow (N is the flow ID).
	EvTransferStart Type = "transfer-start"
	// EvTransferEnd completes a network flow.
	EvTransferEnd Type = "transfer-finish"
	// EvTransferCancel aborts a network flow (failure recovery).
	EvTransferCancel Type = "transfer-cancel"
	// EvRepairQueued marks one stripe entering (or re-entering) the
	// background repair queue. Name is the file, Task the stripe index, N
	// the number of lost blocks still pending repair, Bytes the estimated
	// network read volume of the repair. Class is "scan" for a fresh scan
	// finding, "requeue" for a stripe whose in-flight repair was cancelled
	// by another failure (re-queued at boosted priority), or
	// "unrepairable" for a stripe its survivors cannot rebuild or no
	// alive node can host — reported, never launched. Emitted only when
	// a repair config is active.
	EvRepairQueued Type = "repair-queued"
	// EvRepairLaunch starts the reconstruction of one lost block: Name is
	// the file, Task the stripe index, N the block index within the
	// stripe, Node the destination holder of the rebuilt block, Bytes the
	// total source read volume, and Class "local" (LRC local-group
	// repair) or "global" (full k-source reconstruction). Closed by the
	// matching EvRepairDone, or by an EvRepairQueued requeue when a
	// failure cancels the repair. Emitted only when repair is active.
	EvRepairLaunch Type = "repair-launch"
	// EvRepairDone commits one rebuilt block, with the same identity
	// fields as its EvRepairLaunch. Emitted only when repair is active.
	EvRepairDone Type = "repair-done"
	// EvHeartbeat is one slave heartbeat being served; N is its free map
	// slots before assignment.
	EvHeartbeat Type = "heartbeat"
	// EvSlotIdle marks map slots left idle by a heartbeat while
	// unassigned work remained (the cost the pacing rule trades against).
	EvSlotIdle Type = "slot-idle"
	// EvRunEnd closes a run.
	EvRunEnd Type = "run-end"
)

// Wire-level events emitted by the distributed runtime (internal/
// cluster). Unlike the lifecycle events above, their T field carries
// *real* seconds since the emitting process's run epoch — worker
// processes have no view of the master's virtual clock. The Result
// builder ignores them, so a merged stream still rebuilds the same
// Result as the virtual events alone; their Run label tells the two
// clocks apart.
const (
	// EvWorkerJoin marks a worker registering with the master; Node is
	// its assigned node ID, Name its peer address.
	EvWorkerJoin Type = "worker-join"
	// EvWorkerLost marks the master declaring a worker dead; Name carries
	// the reason (missed heartbeats, connection error).
	EvWorkerLost Type = "worker-lost"
	// EvWireFetch is one real block (or degraded-read source) fetch by a
	// worker; Src is the peer node, Bytes the payload size.
	EvWireFetch Type = "wire-fetch"
	// EvWireMap marks a worker finishing the real map function; Bytes is
	// the input size.
	EvWireMap Type = "wire-map"
	// EvWireShuffle is one reducer's real pull of its partitions from one
	// mapper host, Src (Node itself for the maps it ran): Task is the
	// reducer, N the partitions and Bytes their packed size.
	EvWireShuffle Type = "wire-shuffle"
	// EvWireReduce marks a worker finishing the real reduce function; N
	// is the output record count.
	EvWireReduce Type = "wire-reduce"
	// EvWireRepair marks a worker finishing a real block reconstruction
	// on the master's command: it fetched the source blocks from peers,
	// decoded the lost block, and stored it. Name is the file, Task the
	// stripe, N the block index, Bytes the rebuilt block size.
	EvWireRepair Type = "wire-repair"
)

// Event is one structured lifecycle event. Integer fields use -1 for "not
// applicable" so that node/job/task 0 stays unambiguous; New presets them.
// Times are virtual seconds. The JSON field order is fixed by this struct,
// and float64 values round-trip exactly through encoding/json, so a JSONL
// trace reconstructs in-memory results bit-for-bit.
type Event struct {
	T     float64 `json:"t"`
	Type  Type    `json:"ev"`
	Run   string  `json:"run,omitempty"` // label of the run (experiment/seed/scheduler)
	Job   int     `json:"job"`
	Task  int     `json:"task"` // map index, or reducer index for reduce events
	Node  int     `json:"node"`
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Class string  `json:"class,omitempty"`
	Bytes float64 `json:"bytes"`
	N     int     `json:"n"`             // generic count: sources, slots, flow ID, maps
	Dur   float64 `json:"dur,omitempty"` // interval length (flow latency); 0 omits
	Name  string  `json:"name,omitempty"`
}

// New returns an event at time t with every integer field preset to -1.
func New(t float64, typ Type) Event {
	return Event{T: t, Type: typ, Job: -1, Task: -1, Node: -1, Src: -1, Dst: -1, N: -1}
}

// Sink receives events. Implementations must tolerate concurrent Emit
// calls when runs execute in parallel (the JSONL writer and Memory lock).
type Sink interface {
	Emit(Event)
}

// Memory buffers events in order, for tests and in-process analysis.
type Memory struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *Memory) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the buffered events.
func (m *Memory) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// JSONL writes one JSON object per line. Lines are written atomically
// under a mutex so parallel runs interleave whole events, never bytes.
type JSONL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	out    io.Writer
	err    error
	closed bool
}

// NewJSONL returns a JSONL sink over w. Call Close before discarding the
// sink, or buffered events are lost.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w), out: w}
}

// Emit implements Sink. The first write error is retained (see Err) and
// subsequent events are dropped, as are events emitted after Close.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Close flushes buffered events, closes the underlying writer when it
// implements io.Closer, and returns the first error the sink hit at any
// point — so a short write detected only at flush time surfaces here
// rather than vanishing at process exit. Close is idempotent: repeated
// calls return the same error, and events emitted after Close are
// dropped.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	if ferr := j.w.Flush(); ferr != nil && j.err == nil {
		j.err = ferr
	}
	if c, ok := j.out.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && j.err == nil {
			j.err = cerr
		}
	}
	return j.err
}

// ReadJSONL parses a JSONL trace back into events.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}
