package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"degradedfirst/internal/trace"
)

func runArgs(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestList(t *testing.T) {
	got, _, err := runArgs(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3", "fig7a", "table1", "ext-lrc", "paper:"} {
		if !strings.Contains(got, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunOneText(t *testing.T) {
	got, _, err := runArgs(t, "-run", "fig5a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "=== fig5a") {
		t.Fatalf("output:\n%s", got)
	}
}

func TestRunCSVAndJSON(t *testing.T) {
	got, _, err := runArgs(t, "-run", "fig5b", "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "setting,LF norm,DF norm,DF vs LF") {
		t.Fatalf("csv output:\n%s", got)
	}
	dir := t.TempDir()
	got, _, err = runArgs(t, "-run", "fig5c", "-format", "json", "-results", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `"id":"fig5c"`) {
		t.Fatalf("json output:\n%s", got)
	}
	if _, _, err := runArgs(t, "-run", "fig5a", "-format", "yaml"); err == nil {
		t.Fatal("unknown format must fail")
	}
}

func TestJSONResultsFileIsStable(t *testing.T) {
	read := func() string {
		dir := t.TempDir()
		if _, _, err := runArgs(t, "-run", "fig5c", "-format", "json", "-results", dir); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig5c.json"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first := read()
	if !strings.Contains(first, `"id": "fig5c"`) || !strings.Contains(first, `"columns"`) {
		t.Fatalf("results file content:\n%s", first)
	}
	if !strings.HasSuffix(first, "\n") {
		t.Error("results file must end in a newline")
	}
	if second := read(); second != first {
		t.Error("repeated runs must produce byte-identical results files")
	}
}

// checkResultsGolden runs dfexp with args plus "-format json -results
// dir" and compares the results file id.json byte-for-byte with
// testdata/<golden>, which must also carry every column in cols.
// Regenerate with: bash scripts/goldens.sh update.
func checkResultsGolden(t *testing.T, id, golden string, cols []string, args ...string) {
	t.Helper()
	dir := t.TempDir()
	args = append(args, "-format", "json", "-results", dir)
	if _, _, err := runArgs(t, args...); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatalf("%v (regenerate with: bash scripts/goldens.sh update)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s JSON results drifted from golden.\ngot:\n%s\nwant:\n%s", id, got, want)
	}
	for _, col := range cols {
		if !strings.Contains(string(got), col) {
			t.Fatalf("results missing column %q", col)
		}
	}
}

// TestJobSchedJSONGolden pins the jobsched experiment's JSON results file
// under the -jobsched filter: the queueing-delay columns are part of the
// stable output contract.
func TestJobSchedJSONGolden(t *testing.T) {
	checkResultsGolden(t, "jobsched", "jobsched_quick.json",
		[]string{"wait p50", "wait p99", "makespan"},
		"-run", "jobsched", "-quick", "-jobsched", "fairshare")
}

// TestHedgeJSONGolden pins the hedge experiment's JSON results file: the
// degraded-read and per-flow latency percentiles and the wasted-bytes
// accounting are part of the stable output contract.
func TestHedgeJSONGolden(t *testing.T) {
	checkResultsGolden(t, "hedge", "hedge_quick.json",
		[]string{"read p99", "flow p99", "wasted GB"},
		"-run", "hedge", "-quick", "-seeds", "2")
}

// TestRepairJSONGolden pins the repair experiment's JSON results file: the
// makespan, time-to-first-repair and time-to-full-redundancy columns are
// part of the stable output contract.
func TestRepairJSONGolden(t *testing.T) {
	checkResultsGolden(t, "repair", "repair_quick.json",
		[]string{"first fix", "healed at", "read GB"},
		"-run", "repair", "-quick", "-seeds", "2")
}

func TestRunWritesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.txt")
	_, _, err := runArgs(t, "-run", "fig5a", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig5a") {
		t.Fatal("out file missing results")
	}
}

// failWriter fails every write, as a full disk or a closed pipe does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestOutputWriteErrors: a results write that fails must fail the run in
// every format, not exit 0 having written nothing.
func TestOutputWriteErrors(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		args := []string{"-run", "fig5a", "-format", format, "-results", t.TempDir()}
		err := run(context.Background(), args, failWriter{}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("-format %s: err = %v, want the write error", format, err)
		}
	}
}

func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, _, err := runArgs(t, "-run", "fig3", "-trace", path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace file has no events")
	}
	var transfers int
	for _, e := range events {
		if !strings.HasPrefix(e.Run, "fig3") {
			t.Fatalf("event label %q lacks experiment prefix", e.Run)
		}
		if e.Type == trace.EvTransferEnd {
			transfers++
		}
	}
	if transfers == 0 {
		t.Fatal("fig3 trace must contain completed transfers")
	}
}

func TestRunErrors(t *testing.T) {
	_, _, err := runArgs(t, "-run", "nope")
	if err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if !strings.Contains(err.Error(), "valid IDs") || !strings.Contains(err.Error(), "fig3") {
		t.Errorf("unknown-ID error must list valid IDs, got: %v", err)
	}
	if _, _, err := runArgs(t); err == nil {
		t.Fatal("no action must fail")
	}
	if _, _, err := runArgs(t, "-bogus"); err == nil {
		t.Fatal("unknown flag must fail")
	}
}

func TestFlagErrorsGoToStderr(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag must fail")
	}
	if out.Len() != 0 {
		t.Errorf("flag errors leaked to stdout:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") {
		t.Errorf("stderr missing flag error:\n%s", errOut.String())
	}
}

// TestFlagsCheckedBeforeRunning: a bad flag fails before any experiment
// runs. Under a cancelled context an experiment would fail with
// "context canceled", so each error must be the flag's own.
func TestFlagsCheckedBeforeRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "fig7a", "-quick", "-format", "xml"}, `unknown format "xml"`},
		{[]string{"-run", "fig3,jobsched", "-quick", "-jobsched", "bogus"}, `jobsched: unknown policy "bogus"`},
		{[]string{"-run", "fig7a", "-seeds", "-4"}, "-seeds must be non-negative"},
	} {
		var out, errOut strings.Builder
		err := run(ctx, tc.args, &out, &errOut)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error starting %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed before failing:\n%s", tc.args, out.String())
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	err := run(ctx, []string{"-run", "fig7a", "-quick", "-seeds", "2"}, &out, &errOut)
	if err == nil {
		t.Fatal("cancelled context must abort the run")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("error should stem from cancellation, got: %v", err)
	}
}
