package trace

import (
	"math"
	"strings"
	"testing"
)

// TestJSONLRejectsUnencodableEvent: an event JSON cannot carry (a NaN
// field) is the sink's error, and nothing is written for it.
func TestJSONLRejectsUnencodableEvent(t *testing.T) {
	var buf strings.Builder
	j := NewJSONL(&buf)
	e := New(0, EvRunStart)
	e.Bytes = math.NaN()
	j.Emit(e)
	if err := j.Close(); err == nil || buf.Len() != 0 {
		t.Fatalf("Close after a NaN event: %v, %d bytes written", err, buf.Len())
	}
}
