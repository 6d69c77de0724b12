package trace

import (
	"bytes"
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzJSONLRoundTrip fuzzes every Event field and asserts the invariant
// figure reproduction rests on: a JSONL trace written, read back, and
// written again is byte-identical, and (for encodable inputs) the decoded
// event equals the original — virtual times and byte counts survive the
// JSON round-trip exactly.
func FuzzJSONLRoundTrip(f *testing.F) {
	f.Add(0.0, string(EvRunStart), "", -1, -1, -1, -1, -1, "", 0.0, -1, "lf")
	f.Add(12.75, string(EvTaskLaunch), "fig4/lf", 0, 3, 7, -1, -1, "degraded", 0.0, -1, "")
	f.Add(99.5, string(EvTransferEnd), "exp", 1, -1, -1, 2, 9, "", 64e6, 17, "")
	f.Add(1e-9, string(EvHeartbeat), "run \"quoted\"", 0, 0, 0, 0, 0, "local\nnewline", -0.5, 2, "wc")
	f.Fuzz(func(t *testing.T, tm float64, typ, run string, job, task, node, src, dst int, class string, bytesF float64, n int, name string) {
		e := Event{
			T: tm, Type: Type(typ), Run: run,
			Job: job, Task: task, Node: node, Src: src, Dst: dst,
			Class: class, Bytes: bytesF, N: n, Name: name,
		}

		var buf1 bytes.Buffer
		w1 := NewJSONL(&buf1)
		w1.Emit(e)
		if err := w1.Close(); err != nil {
			// NaN/Inf are not encodable in JSON; the sink retains the
			// error instead of corrupting the stream.
			if !math.IsNaN(tm) && !math.IsInf(tm, 0) && !math.IsNaN(bytesF) && !math.IsInf(bytesF, 0) {
				t.Fatalf("Close failed on encodable event %+v: %v", e, err)
			}
			return
		}

		events, err := ReadJSONL(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSONL failed on %q: %v", buf1.Bytes(), err)
		}
		if len(events) != 1 {
			t.Fatalf("read %d events, want 1 (stream %q)", len(events), buf1.Bytes())
		}

		var buf2 bytes.Buffer
		w2 := NewJSONL(&buf2)
		w2.Emit(events[0])
		if err := w2.Close(); err != nil {
			t.Fatalf("re-encoding decoded event: %v", err)
		}

		if utf8.ValidString(typ) && utf8.ValidString(run) && utf8.ValidString(class) && utf8.ValidString(name) {
			// The invariant the figures rest on: for the events the
			// runtime actually emits (valid UTF-8 strings), the stream
			// and the event round-trip exactly.
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatalf("write-read-write not byte-identical:\n first: %q\nsecond: %q", buf1.Bytes(), buf2.Bytes())
			}
			if events[0] != e {
				t.Fatalf("decoded event %+v != original %+v", events[0], e)
			}
			return
		}

		// encoding/json replaces invalid UTF-8 with U+FFFD, so the first
		// write is lossy; the round-trip must still reach a fixed point
		// after one write.
		events2, err := ReadJSONL(bytes.NewReader(buf2.Bytes()))
		if err != nil || len(events2) != 1 {
			t.Fatalf("re-reading sanitized stream %q: %d events, %v", buf2.Bytes(), len(events2), err)
		}
		var buf3 bytes.Buffer
		w3 := NewJSONL(&buf3)
		w3.Emit(events2[0])
		if err := w3.Close(); err != nil {
			t.Fatalf("third encoding: %v", err)
		}
		if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
			t.Fatalf("sanitized stream is not a fixed point:\nsecond: %q\n third: %q", buf2.Bytes(), buf3.Bytes())
		}
	})
}
