package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestHedgeSuiteReport smoke-runs the hedge suite and checks the report
// carries both the wall-clock timings and the simulated hedge outcomes:
// every mode/policy case present, and under the queueing (hold) model the
// k+Δ races pull the p99 degraded-read latency strictly below the
// unhedged baseline.
func TestHedgeSuiteReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	err := run([]string{"-suite", "hedge", "-out", out, "-mintime", "1ms"}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) != 16 { // 2 modes x 4 policies x (hedged, baseline)
		t.Fatalf("results = %d, want 16", len(rep.Results))
	}
	cases := map[string]HedgeCase{}
	for _, c := range rep.Hedge {
		cases[c.Net+"/"+c.Policy] = c
		if c.Degraded == 0 || c.ReadP50 <= 0 || c.ReadP99 < c.ReadP50 {
			t.Fatalf("implausible hedge case: %+v", c)
		}
	}
	if len(cases) != 8 {
		t.Fatalf("hedge cases = %d, want 8", len(cases))
	}
	for _, key := range []string{"hold/delta1", "hold/delta2"} {
		if got, base := cases[key].ReadP99, cases["hold/delta0"].ReadP99; got >= base {
			t.Errorf("%s p99 %.1f not below unhedged baseline %.1f", key, got, base)
		}
	}
	if cases["hold/delta0"].Wasted != 0 || cases["fluid/delta0"].Wasted != 0 {
		t.Error("unhedged cases must waste nothing")
	}
	if cases["fluid/delta1"].Wasted <= 0 {
		t.Error("fluid delta1 must report extra bytes moved")
	}
}

// TestRepairSuiteReport smoke-runs the repair suite and checks the
// report carries both the wall-clock timings and the simulated healing
// outcomes: every throttle case present, more repair bandwidth healing
// strictly sooner, and the off baseline repairing nothing.
func TestRepairSuiteReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	err := run([]string{"-suite", "repair", "-out", out, "-mintime", "1ms"}, io.Discard, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) != 8 { // 4 throttles x (healer, baseline)
		t.Fatalf("results = %d, want 8", len(rep.Results))
	}
	cases := map[string]RepairCase{}
	for _, c := range rep.Repair {
		cases[c.Throttle] = c
		if c.Makespan <= 0 {
			t.Fatalf("implausible repair case: %+v", c)
		}
	}
	if len(cases) != 4 {
		t.Fatalf("repair cases = %d, want 4", len(cases))
	}
	off := cases["off"]
	if off.Blocks != 0 || off.RepairBytes != 0 || off.HealedAt != -1 || off.FirstFix != -1 {
		t.Fatalf("off baseline must repair nothing: %+v", off)
	}
	prev := -1.0
	for _, name := range []string{"5pct", "25pct", "100pct"} {
		c := cases[name]
		if c.Blocks == 0 || c.RepairBytes <= 0 || c.HealedAt <= 0 || c.FirstFix < 0 || c.FirstFix > c.HealedAt {
			t.Fatalf("%s: implausible healing outcome: %+v", name, c)
		}
		if prev >= 0 && c.HealedAt >= prev {
			t.Errorf("%s healed at %.1f, not below the slower throttle's %.1f", name, c.HealedAt, prev)
		}
		prev = c.HealedAt
	}
}

func TestRunRejectsBadSuite(t *testing.T) {
	for _, args := range [][]string{nil, {"-suite", "erasure"}} {
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err == nil || stdout.Len() != 0 {
			t.Fatalf("run(%v) = %v with %d bytes on stdout; want an error naming the suites and no report", args, err, stdout.Len())
		}
	}
}

func TestMeasureScalesIterations(t *testing.T) {
	var total int
	r := measure(100, 5*time.Millisecond, func(n int) {
		total += n
		time.Sleep(time.Duration(n) * 100 * time.Microsecond)
	})
	if r.N < 2 {
		t.Fatalf("measure never grew the batch: %+v", r)
	}
	if r.NsPerOp <= 0 || r.MBPerS <= 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
}
