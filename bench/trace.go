package main

import (
	"sync"
	"time"

	"degradedfirst/internal/trace"
)

// flowOp is one recorded network operation of a run, in emission order:
// a flow start (bytes > 0 or a zero-byte local transfer), a cancel, or a
// finish. The replay feeds starts and cancels back into a fresh netsim
// and checks the finishes.
type flowOp struct {
	kind     trace.Type
	t        float64
	id       int
	src, dst int
	bytes    float64
}

// countSink is the benchmark-owned trace.Sink of the traced pass: it
// counts events by type, splits task launches by locality class, sums
// transfer bytes, and keeps each run's flow stream for the replay.
// Workers of the loopback cluster emit concurrently, hence the mutex.
type countSink struct {
	mu        sync.Mutex
	events    int
	byType    map[trace.Type]int
	launches  map[string]int // task-launch by Class
	flowBytes float64        // transfer-start volume
	flows     map[string][]flowOp
}

func newCountSink() *countSink {
	return &countSink{
		byType:   make(map[trace.Type]int),
		launches: make(map[string]int),
		flows:    make(map[string][]flowOp),
	}
}

// Emit implements trace.Sink.
func (s *countSink) Emit(e trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	s.byType[e.Type]++
	switch e.Type {
	case trace.EvTaskLaunch:
		s.launches[e.Class]++
	case trace.EvTransferStart:
		s.flowBytes += e.Bytes
		fallthrough
	case trace.EvTransferCancel, trace.EvTransferEnd:
		s.flows[e.Run] = append(s.flows[e.Run], flowOp{e.Type, e.T, e.N, e.Src, e.Dst, e.Bytes})
	}
}

func (s *countSink) count(t trace.Type) float64 { return float64(s.byType[t]) }

// stopwatch reads the host's clock: the one thing the benchmark exists to
// do, and the one thing nothing on the virtual clock may do.
type stopwatch time.Time

func startWatch() stopwatch {
	//lint:ignore netboundary the benchmark measures host time; no simulated result reads this clock
	return stopwatch(time.Now())
}

func (s stopwatch) seconds() float64 { return time.Since(time.Time(s)).Seconds() }

// Span is one timed call into a public function of a layer: its name,
// start and end in host seconds since the workload began, the index of
// the span that caused it (-1 for a root), and the id of the workload
// run all spans of one traced pass share.
type Span struct {
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Bytes  float64 `json:"bytes,omitempty"`
}

// spanLog keeps spans in memory; the report writes them out at exit. A
// nil *spanLog records nothing, so the untraced pass pays only a nil
// check per call.
type spanLog struct {
	epoch stopwatch
	run   string
	root  int // the open root span new spans hang under
	spans []Span
}

func newSpanLog(run string) *spanLog { return &spanLog{epoch: startWatch(), run: run, root: -1} }

// startRoot opens a span with no parent; until the next startRoot, the
// spans start opens are its children. end closes either kind.
func (l *spanLog) startRoot(name string) int {
	if l == nil {
		return -1
	}
	l.root = -1
	l.root = l.start(name)
	return l.root
}

func (l *spanLog) start(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, Span{Name: name, Run: l.run, Parent: l.root, Start: l.epoch.seconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int, bytes float64) {
	if l == nil {
		return
	}
	l.spans[i].End = l.epoch.seconds()
	l.spans[i].Bytes = bytes
}

// total sums the durations (and bytes) of the spans with the given name.
func (l *spanLog) total(name string) (seconds, bytes float64) {
	if l == nil {
		return 0, 0
	}
	for _, s := range l.spans {
		if s.Name == name {
			seconds += s.End - s.Start
			bytes += s.Bytes
		}
	}
	return seconds, bytes
}
