package main

import (
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

func smallArgs(extra ...string) []string {
	base := []string{
		"-nodes", "12", "-racks", "3", "-n", "6", "-k", "4",
		"-blocks", "60", "-block-mb", "16", "-rack-mbps", "100",
		"-reducers", "4", "-map-time", "5", "-reduce-time", "8",
	}
	return append(base, extra...)
}

func TestRunLF(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), smallArgs(), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"scheduler:          LF", "job runtime:", "mean degraded read:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunEDFWithTimeline(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), smallArgs("-sched", "EDF", "-timeline"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "scheduler:          EDF") {
		t.Fatalf("scheduler not applied:\n%s", got)
	}
	if !strings.Contains(got, "map phase 0.0s") || !strings.Contains(got, "node0") {
		t.Fatalf("timeline missing:\n%s", got)
	}
}

func TestRunHoldModeAndNoFailure(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), smallArgs("-hold", "-failure", "none"), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "mean degraded read") {
		t.Fatal("normal mode must have no degraded reads")
	}
}

func TestSchedulerAndFailureParsing(t *testing.T) {
	for _, s := range []string{"LF", "bdf", "EDF", "EagerDF", "delaylf"} {
		var out strings.Builder
		if err := run(context.Background(), smallArgs("-sched", s), &out); err != nil {
			t.Errorf("-sched %s: %v", s, err)
		}
	}
	for _, c := range []struct {
		in   string
		want topology.FailurePattern
	}{
		{"none", topology.NoFailure},
		{"single", topology.SingleNodeFailure},
		{"single-node", topology.SingleNodeFailure},
		{"double", topology.DoubleNodeFailure},
		{"Double-Node", topology.DoubleNodeFailure},
		{"rack", topology.RackFailure},
	} {
		if got, err := parseFailure(c.in); err != nil || got != c.want {
			t.Errorf("parseFailure(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"meteor", "node", "rack-node"} {
		_, err := parseFailure(bad)
		if err == nil || !strings.Contains(err.Error(), "(none, single-node, double-node, rack)") {
			t.Errorf("parseFailure(%q) error %v, want one listing the pattern names", bad, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-sched", "bogus"}, &out); err == nil {
		t.Fatal("bad scheduler must fail")
	}
	if err := run(context.Background(), []string{"-failure", "bogus"}, &out); err == nil {
		t.Fatal("bad failure must fail")
	}
	if err := run(context.Background(), []string{"-nodes", "0"}, &out); err == nil {
		t.Fatal("bad cluster must fail")
	}
	// Non-finite sizes used to panic in the engine mid-run.
	for _, args := range [][]string{{"-block-mb", "+Inf"}, {"-shuffle", "+Inf"}, {"-block-mb", "NaN"}} {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%v must fail", args)
		}
	}
}

// TestReducersWithoutReduceSlots: a cluster with no reduce slots rejects a
// job with reducers before simulating anything, and runs a map-only job.
func TestReducersWithoutReduceSlots(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), smallArgs("-reduce-slots", "0"), &out)
	if err == nil || !strings.Contains(err.Error(), `job "job"`) || !strings.Contains(err.Error(), "no reduce slots") {
		t.Fatalf("-reduce-slots 0 with reducers: %v, want an error naming the job and the missing reduce slots", err)
	}
	if err := run(context.Background(), smallArgs("-reduce-slots", "0", "-reducers", "0"), &out); err != nil {
		t.Fatalf("map-only job on a cluster without reduce slots: %v", err)
	}
}

// TestRunCPUProfile profiles a paper-sized (40-node) run into a gzipped
// pprof file.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var out strings.Builder
	if err := run(context.Background(), []string{"-sched", "EDF", "-cpuprofile", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("profile: %d bytes, %v", n, err)
	}
	if err := run(context.Background(), smallArgs("-cpuprofile", filepath.Join(path, "x")), &out); err == nil {
		t.Error("an unwritable profile path must fail")
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	if err := run(context.Background(), smallArgs("-trace", path), &out); err != nil {
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
	for _, e := range events {
		if e.Run != "dfsim" {
			t.Fatalf("event label = %q, want dfsim", e.Run)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if err := run(ctx, smallArgs(), &out); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}
