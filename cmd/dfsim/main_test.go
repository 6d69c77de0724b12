package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/trace"
)

// smallArgs is a 12-node run with 16 MB blocks on 100 Mbps racks, and
// a job of 60 maps of 5 s and 4 reduces of 8 s, followed by extra.
func smallArgs(extra ...string) []string {
	var args []string
	for _, kv := range []string{
		"Nodes=12", "Racks=3", "N=6", "K=4", "NumBlocks=60", "BlockSizeBytes=16e6", "RackBps=12500000",
		"Jobs.0.NumReduceTasks=4", `Jobs.0.MapTime={"Mean":5,"Std":0.25}`, `Jobs.0.ReduceTime={"Mean":8,"Std":0.5333333333333333}`,
	} {
		args = append(args, "-set", kv)
	}
	return append(args, extra...)
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
	if err := run(context.Background(), smallArgs("-set", "Scheduler=EDF", "-timeline"), &out); err != nil {
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
	if err := run(context.Background(), smallArgs("-set", "NetMode=hold", "-set", "Failure=none"), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "mean degraded read") {
		t.Fatal("normal mode must have no degraded reads")
	}
}

// TestRunEachScheduler runs every scheduler -set Scheduler names.
func TestRunEachScheduler(t *testing.T) {
	for _, s := range []string{"LF", "bdf", "EDF", "EagerDF", "delaylf"} {
		var out strings.Builder
		if err := run(context.Background(), smallArgs("-set", "Scheduler="+s), &out); err != nil {
			t.Errorf("Scheduler=%s: %v", s, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-set", "Scheduler=bogus"}, &out); err == nil {
		t.Fatal("bad scheduler must fail")
	}
	if err := run(context.Background(), []string{"-set", "Failure=bogus"}, &out); err == nil {
		t.Fatal("bad failure must fail")
	}
	if err := run(context.Background(), []string{"-set", "Nodes=0"}, &out); err == nil {
		t.Fatal("bad cluster must fail")
	}
	// Non-finite sizes and times are no JSON numbers: -set rejects them,
	// naming the path, before the engine could panic on one mid-run.
	for _, kv := range []string{
		"BlockSizeBytes=+Inf", "Jobs.0.ShuffleRatio=+Inf", "BlockSizeBytes=NaN",
		`Jobs.0.MapTime={"Mean":NaN,"Std":NaN}`, "RackBps=NaN",
	} {
		path, _, _ := strings.Cut(kv, "=")
		if err := run(context.Background(), []string{"-set", kv}, &out); err == nil || !strings.HasPrefix(err.Error(), path+": ") {
			t.Errorf("-set %s: %v, want an error naming %s", kv, err, path)
		}
	}
}

// TestReducersWithoutReduceSlots: a cluster with no reduce slots rejects a
// job with reducers before simulating anything, and runs a map-only job.
func TestReducersWithoutReduceSlots(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), smallArgs("-set", "ReduceSlotsPerNode=0"), &out)
	if err == nil || !strings.Contains(err.Error(), `job "job"`) || !strings.Contains(err.Error(), "no reduce slots") {
		t.Fatalf("ReduceSlotsPerNode=0 with reducers: %v, want an error naming the job and the missing reduce slots", err)
	}
	if err := run(context.Background(), smallArgs("-set", "ReduceSlotsPerNode=0", "-set", "Jobs.0.NumReduceTasks=0"), &out); err != nil {
		t.Fatalf("map-only job on a cluster without reduce slots: %v", err)
	}
}

// TestRunCPUProfile profiles a paper-sized (40-node) run into a gzipped
// pprof file.
func TestRunCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var out strings.Builder
	if err := run(context.Background(), []string{"-set", "Scheduler=EDF", "-cpuprofile", path}, &out); err != nil {
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

// TestSetReachesEveryLeaf sets every leaf field of mapred.Config, the
// embedded runtime.Options' among them, through dfsim's -set, and checks
// that each value lands where its path says.
func TestSetReachesEveryLeaf(t *testing.T) {
	n := 0
	leaves(reflect.TypeOf(mapred.Config{}), "", func(path, value string) {
		n++
		c, err := parse([]string{"-set", path + "=" + value}, io.Discard)
		if err != nil {
			t.Errorf("-set %s=%s: %v", path, value, err)
			return
		}
		got := reflect.ValueOf(c.Config)
		for _, name := range strings.Split(path, ".") {
			got = reflect.Indirect(got).FieldByName(name)
		}
		want := reflect.New(got.Type())
		if err := json.Unmarshal([]byte(value), want.Interface()); err != nil || !reflect.DeepEqual(got.Interface(), want.Elem().Interface()) {
			t.Errorf("-set %s=%s: got %v, want %v (%v)", path, value, got, want.Elem(), err)
		}
	})
	if n < 30 {
		t.Errorf("walked %d leaves, want every leaf of mapred.Config", n)
	}
}

// leaves calls visit with the -set path and a sample JSON value of every
// leaf field of t: a scalar, enum, list or map, or a field reached
// through an embedding or a pointer. The Go-only Trace and Policy, and
// TraceLabel beside Trace, are left out.
func leaves(t reflect.Type, prefix string, visit func(path, value string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Name == "Trace" || f.Name == "TraceLabel" || f.Name == "Policy":
		case f.Anonymous:
			leaves(f.Type, prefix, visit)
		case f.Type.Kind() == reflect.Pointer:
			leaves(f.Type.Elem(), prefix+f.Name+".", visit)
		case f.Type.Kind() == reflect.Struct && !reflect.PointerTo(f.Type).Implements(textUnmarshaler):
			leaves(f.Type, prefix+f.Name+".", visit)
		default:
			visit(prefix+f.Name, sample(f.Type))
		}
	}
}

var textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()

// sample is a JSON value of type t that no default scenario holds: an
// enum's value 2, or 1 where 2 is no value of it.
func sample(t reflect.Type) string {
	if reflect.PointerTo(t).Implements(textUnmarshaler) {
		for _, n := range []int64{2, 1} {
			v := reflect.New(t)
			v.Elem().SetInt(n)
			name, _ := v.Elem().Interface().(encoding.TextMarshaler).MarshalText()
			if v.Interface().(encoding.TextUnmarshaler).UnmarshalText(name) == nil {
				return strconv.Quote(string(name))
			}
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return "true"
	case reflect.Int, reflect.Int64:
		return "7"
	case reflect.Float64:
		return "0.5"
	case reflect.String:
		return `"x"`
	case reflect.Slice:
		return "[" + sample(t.Elem()) + "]"
	case reflect.Map:
		return `{"5":` + sample(t.Elem()) + "}"
	case reflect.Struct:
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			fields = append(fields, strconv.Quote(t.Field(i).Name)+":"+sample(t.Field(i).Type))
		}
		return "{" + strings.Join(fields, ",") + "}"
	}
	panic("no sample of " + t.String())
}

// TestHelpExitsZero runs main with -help and with -h in a child
// process, this test binary re-entered through DFSIM_HELP_ARG: each
// prints the usage once and exits 0, with no error line.
func TestHelpExitsZero(t *testing.T) {
	if arg := os.Getenv("DFSIM_HELP_ARG"); arg != "" {
		os.Args = []string{"dfsim", arg}
		main()
		return
	}
	for _, arg := range []string{"-help", "-h"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
		cmd.Env = append(os.Environ(), "DFSIM_HELP_ARG="+arg)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("dfsim %s: %v\n%s", arg, err, out.String())
		}
		if n := strings.Count(out.String(), "Usage of dfsim:"); n != 1 || strings.Contains(out.String(), "help requested") {
			t.Errorf("dfsim %s printed the usage %d times, or an error:\n%s", arg, n, out.String())
		}
	}
}
