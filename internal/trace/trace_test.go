package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestNewPresetsUnsetFields(t *testing.T) {
	e := New(1.5, EvTaskLaunch)
	if e.T != 1.5 || e.Type != EvTaskLaunch {
		t.Fatalf("header wrong: %+v", e)
	}
	for name, v := range map[string]int{
		"Job": e.Job, "Task": e.Task, "Node": e.Node, "Src": e.Src, "Dst": e.Dst, "N": e.N,
	} {
		if v != -1 {
			t.Errorf("%s = %d, want -1", name, v)
		}
	}
}

func TestMemorySink(t *testing.T) {
	var m Memory
	m.Emit(New(0, EvRunStart))
	m.Emit(New(1, EvRunEnd))
	got := m.Events()
	if len(got) != 2 || got[0].Type != EvRunStart || got[1].Type != EvRunEnd {
		t.Fatalf("events = %v", got)
	}
	// The returned slice is a copy.
	got[0].Type = EvNodeFail
	if m.Events()[0].Type != EvRunStart {
		t.Fatal("Events must return a copy")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		New(0, EvRunStart),
		{T: 3.25, Type: EvTaskLaunch, Run: "r", Job: 0, Task: 7, Node: 2,
			Src: -1, Dst: -1, Class: "degraded", Bytes: 128e6, N: 2},
		New(9.5, EvRunEnd),
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.firstErr() != nil {
		t.Fatal(sink.firstErr())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(events) {
		t.Fatalf("lines = %d, want %d", lines, len(events))
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip altered events:\n got %+v\nwant %+v", got, events)
	}
}

func TestReadJSONLSkipsBlankAndRejectsGarbage(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader("\n" + `{"t":1,"ev":"run-end"}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != EvRunEnd {
		t.Fatalf("events = %v", got)
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage must fail")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error should name the line: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLRetainsFirstError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	for i := 0; i < 10000; i++ {
		sink.Emit(New(float64(i), EvHeartbeat))
	}
	if err := sink.Close(); err == nil {
		t.Fatal("close over a failing writer must error")
	}
	if sink.firstErr() == nil || !strings.Contains(sink.firstErr().Error(), "disk full") {
		t.Fatalf("Err = %v", sink.firstErr())
	}
}
