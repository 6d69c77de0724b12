package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// failAfterWriter accepts n bytes, then fails every write.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// closerBuffer records whether Close was called and can fail it.
type closerBuffer struct {
	bytes.Buffer
	closed   bool
	closeErr error
}

func (c *closerBuffer) Close() error {
	c.closed = true
	return c.closeErr
}

func TestJSONLCloseFlushesAndClosesWriter(t *testing.T) {
	out := &closerBuffer{}
	j := NewJSONL(out)
	j.Emit(Event{Type: EvJobSubmit})
	// Emit buffers; nothing reaches the writer until flush or close.
	if out.Len() != 0 {
		t.Fatal("Emit bypassed the buffer")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	if !out.closed {
		t.Fatal("Close did not close the underlying writer")
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1 {
		t.Fatalf("flushed %d events, want 1", lines)
	}
}

func TestJSONLCloseSurfacesDeferredWriteError(t *testing.T) {
	// The sink buffers, so a full writer is invisible to Emit — the
	// error must surface at Close instead of vanishing at process exit.
	boom := errors.New("disk full")
	j := NewJSONL(&failAfterWriter{n: 4, err: boom})
	j.Emit(Event{Type: EvJobSubmit})
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the deferred write error", err)
	}
}

func TestJSONLCloseSurfacesCloserError(t *testing.T) {
	boom := errors.New("close failed")
	out := &closerBuffer{closeErr: boom}
	j := NewJSONL(out)
	j.Emit(Event{Type: EvJobSubmit})
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the closer's error", err)
	}
}

func TestJSONLCloseIdempotentAndDropsLateEvents(t *testing.T) {
	out := &closerBuffer{closeErr: errors.New("once")}
	j := NewJSONL(out)
	j.Emit(Event{Type: EvJobSubmit})
	first := j.Close()
	if first == nil {
		t.Fatal("Close() = nil, want the closer's error")
	}
	out.closeErr = nil // a second Close must not re-close the writer
	if again := j.Close(); !errors.Is(again, first) {
		t.Fatalf("second Close() = %v, want the first error %v", again, first)
	}
	before := out.Len()
	j.Emit(Event{Type: EvTaskFinish})
	if err := j.Err(); err == nil {
		t.Fatal("Err() after a failed Close = nil, want the retained error")
	}
	if out.Len() != before {
		t.Fatal("event emitted after Close reached the writer")
	}
}
