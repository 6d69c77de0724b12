package scenario

import (
	"context"
	"encoding"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// TestSchedulerAndFailureParsing holds the -sched and -failure names the
// CLIs take, through Set, to the schedulers and patterns they name:
// every case, the failure aliases among them.
func TestSchedulerAndFailureParsing(t *testing.T) {
	for in, want := range map[string]sched.Kind{
		"LF": sched.KindLF, "bdf": sched.KindBDF, "EDF": sched.KindEDF, "EagerDF": sched.KindEagerDF, "delaylf": sched.KindDelayLF,
	} {
		s := Paper()
		if err := s.Set("Scheduler", in); err != nil || s.Scheduler != want {
			t.Errorf("Scheduler=%s: %v, %v; want %v", in, s.Scheduler, err, want)
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
		s := Paper()
		if err := s.Set("Failure", c.in); err != nil || s.Failure != c.want {
			t.Errorf("Failure=%s: %v, %v; want %v", c.in, s.Failure, err, c.want)
		}
	}
	for _, bad := range []string{"meteor", "node", "rack-node"} {
		s := Paper()
		err := s.Set("Failure", bad)
		if err == nil || !strings.Contains(err.Error(), "(none, single-node, double-node, rack)") {
			t.Errorf("Failure=%s: error %v, want one listing the pattern names", bad, err)
		}
	}
}

// TestEnumsRoundTrip spells every value of each enum a scenario holds by
// name and parses it back.
func TestEnumsRoundTrip(t *testing.T) {
	type enum interface {
		encoding.TextMarshaler
		String() string
	}
	var values []enum
	for k := sched.KindLF; k <= sched.KindDelayLF; k++ {
		values = append(values, k)
	}
	for k := jobsched.Fifo; k <= jobsched.Deadline; k++ {
		values = append(values, k)
	}
	for p := topology.NoFailure; p <= topology.RackFailure; p++ {
		values = append(values, p)
	}
	values = append(values, netsim.FluidFairSharing, netsim.ExclusiveHold, dfs.RandomK, dfs.PreferSameRack)
	for _, v := range values {
		text, err := v.MarshalText()
		if err != nil || string(text) != v.String() {
			t.Errorf("%v: MarshalText = %q, %v", v, text, err)
		}
		back := reflect.New(reflect.TypeOf(v))
		if err := back.Interface().(encoding.TextUnmarshaler).UnmarshalText(text); err != nil || back.Elem().Interface() != v {
			t.Errorf("%v: UnmarshalText(%q) = %v, %v", v, text, back.Elem(), err)
		}
	}
	var m netsim.Mode
	var st dfs.SelectionStrategy
	if m.UnmarshalText([]byte("mode(2)")) == nil || st.UnmarshalText([]byte("nearest")) == nil {
		t.Error("an unknown mode or strategy name must fail")
	}
}

// TestSetMerges pins Set's JSON merge: an object merges, a list index
// patches or appends, a nil pointer fills, and the result shares nothing
// with the scenario it came from.
func TestSetMerges(t *testing.T) {
	s := Paper()
	s.Hedge.HedgeQuantile = 0.9
	jobs := s.Jobs
	for _, kv := range [][2]string{
		{"Hedge", `{"Extra":2}`},
		{"Jobs.0.MapTime.Mean", "5"},
		{"jobs.1", `{"Name":"second","MapTime":{"Mean":1}}`},
		{"Topology.Nodes", "6"},
		{"SpeedFactors", `{"3":2}`},
		{"TraceLabel", "run"},
	} {
		if err := s.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", kv[0], kv[1], err)
		}
	}
	switch {
	case s.Hedge != runtime.HedgePolicy{Extra: 2, HedgeQuantile: 0.9}:
		t.Errorf("Hedge = %+v, want Extra merged in beside the quantile", s.Hedge)
	case len(s.Jobs) != 2 || s.Jobs[0].MapTime.Mean != 5 || s.Jobs[0].MapTime.Std != 1 || s.Jobs[1].Name != "second":
		t.Errorf("Jobs = %+v", s.Jobs)
	case s.Topology == nil || s.Topology.Nodes != 6:
		t.Errorf("Topology = %+v", s.Topology)
	case s.SpeedFactors[3] != 2 || s.TraceLabel != "run":
		t.Errorf("SpeedFactors = %v, TraceLabel = %q", s.SpeedFactors, s.TraceLabel)
	case jobs[0].MapTime.Mean != 20:
		t.Error("Set wrote into the slice the scenario held before")
	}
}

// TestSetErrorsNamePath: an unknown path, enum name or list element, or a
// value of the wrong type, fails with the path in the error.
func TestSetErrorsNamePath(t *testing.T) {
	for _, kv := range [][2]string{
		{"Bogus", "1"},
		{"Hedge.Extar", "1"},
		{"Scheduler", "SJF"},
		{"NetMode", "lossy"},
		{"SourceStrategy", "nearest"},
		{"JobSched.Policy", "lottery"},
		{"Nodes", "many"},
		{"Nodes.Count", "1"},
		{"Jobs.3.Name", "x"},
		{"Jobs.x.Name", "x"},
		{"RackBps", "+Inf"},
	} {
		s := Paper()
		err := s.Set(kv[0], kv[1])
		if err == nil || !strings.HasPrefix(err.Error(), kv[0]+": ") {
			t.Errorf("Set(%s, %s) = %v, want an error naming the path", kv[0], kv[1], err)
		}
	}
}

// TestSetRejectsKeysDifferingInCase: an object with two keys that differ
// only in case is refused, with the path, on every call and at any depth,
// rather than one key winning by map order.
func TestSetRejectsKeysDifferingInCase(t *testing.T) {
	for _, tc := range []struct{ path, value, want string }{
		{"Hedge", `{"Extra":1,"extra":2}`, `Hedge: keys "Extra" and "extra" differ only in case`},
		{"Jobs.0", `{"MapTime":{"Mean":1,"MEAN":2}}`, `Jobs.0: keys "MEAN" and "Mean" in MapTime differ only in case`},
		{"Testbed", `[{"Kind":"grep","kind":"wordcount"}]`, `Testbed: keys "Kind" and "kind" in 0 differ only in case`},
	} {
		for i := 0; i < 200; i++ {
			s := Paper()
			err := s.Set(tc.path, tc.value)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("call %d: Set(%s, %s) = %v, want %q", i, tc.path, tc.value, err, tc.want)
			}
		}
	}
}

// TestWorldsRoundTrip: the two declared worlds survive their own JSON,
// Go-only fields included.
func TestWorldsRoundTrip(t *testing.T) {
	for _, world := range []func() Scenario{Paper, Testbed} {
		s := world()
		if err := s.patch(nil, map[string]any{}); err != nil || !reflect.DeepEqual(s, world()) {
			t.Errorf("%+v changed through its JSON (%v) into %+v", world(), err, s)
		}
	}
}

// FuzzScenarioSet holds Set, the one setter of every command line, on
// both worlds: it never panics, and a scenario it accepts survives its
// own JSON, Go-only fields included.
func FuzzScenarioSet(f *testing.F) {
	for _, kv := range [][2]string{
		{"Hedge.Extra", "2"},
		{"Jobs.0.MapTime", `{"Mean":5,"Std":0.25}`},
		{"jobs.1", `{"Name":"second"}`},
		{"Scheduler", "edf"},
		{"Failure", "double"},
		{"FailNodes", "[3,5]"},
		{"SpeedFactors", `{"3":2}`},
		{"Topology", `{"Nodes":6}`},
		{"Testbed.0.kind", "grep"},
		{"Nodes", "many"},
		{"RackBps", "+Inf"},
		{"Hedge", `{"Extra":1,"extra":2}`},
	} {
		f.Add(kv[0], kv[1])
	}
	f.Fuzz(func(t *testing.T, path, value string) {
		for _, world := range []func() Scenario{Paper, Testbed} {
			s := world()
			if s.Set(path, value) != nil {
				continue
			}
			back := s
			if err := back.patch(nil, map[string]any{}); err != nil || !reflect.DeepEqual(back, s) {
				t.Errorf("Set(%q, %q) gives %+v, which its JSON turns into %+v (%v)", path, value, s, back, err)
			}
		}
	})
}

// TestExampleScenarios decodes every file under examples/scenarios onto
// its world, unknown fields rejected: Testbed when the file holds
// Testbed jobs, else Paper. A testbed file must build its world; any
// other must pass every check a simulation makes before it starts.
func TestExampleScenarios(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, file := range files {
		data, err := os.ReadFile(file)
		var doc any
		var shape Scenario
		if err == nil {
			err = decode(data, &doc)
		}
		if err == nil {
			err = decode(data, &shape)
		}
		s := Paper()
		if len(shape.Testbed) > 0 {
			s = Testbed()
		}
		if err == nil {
			err = s.patch(nil, doc)
		}
		switch {
		case err != nil:
		case len(s.Testbed) > 0:
			_, err = s.BuildTestbed()
		default:
			// A cancelled run stops at its first heartbeat, after every
			// check of its settings and jobs.
			if _, err = mapred.RunContext(cancelled, s.Config, s.Jobs); errors.Is(err, context.Canceled) {
				err = nil
			}
		}
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(file), err)
		}
	}
}

// TestFlags applies a scenario file and each -set in command-line
// order, and fails a missing file or a -set without "=" at parse time.
func TestFlags(t *testing.T) {
	file := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(file, []byte(`{"Nodes": 8, "Racks": 2, "Seed": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args ...string) (Scenario, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		apply := Flags(fs)
		s := Paper()
		err := fs.Parse(args)
		if err == nil {
			err = apply(&s)
		}
		return s, err
	}
	s, err := parse("-set", "Nodes=4", "-scenario", file, "-set", "NetMode=hold", "-set", "Seed=5")
	if err != nil || s.Nodes != 8 || s.Racks != 2 || s.Seed != 5 || s.NetMode != netsim.ExclusiveHold {
		t.Errorf("got Nodes %d Racks %d Seed %d NetMode %v, %v; want 8 2 5 hold", s.Nodes, s.Racks, s.Seed, s.NetMode, err)
	}
	if s, err := parse("-scenario", file, "-set", "Nodes=6"); err != nil || s.Nodes != 6 {
		t.Errorf("a -set after the file: Nodes %d, %v", s.Nodes, err)
	}
	for _, args := range [][]string{{"-scenario", file + ".missing"}, {"-set", "Nodes"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v must fail", args)
		}
	}
	if err := os.WriteFile(file, []byte(`{"Nodez": 8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parse("-scenario", file); err == nil || !strings.Contains(err.Error(), file) {
		t.Errorf("an unknown field in a file: %v, want an error naming the file", err)
	}
}

// TestBuildTestbed builds the default world, fails the node the
// in-process testbed always drew from the seed, and rejects what the
// testbed cannot honor, naming it.
func TestBuildTestbed(t *testing.T) {
	s := Testbed()
	s.Failure, s.Seed, s.NumBlocks = topology.SingleNodeFailure, 9100, 10
	fs, err := s.BuildTestbed()
	if err != nil {
		t.Fatal(err)
	}
	want := []topology.NodeID{topology.NodeID(stats.NewRNG(9100).Intn(12))}
	if got := fs.Cluster().FailedNodes(); !reflect.DeepEqual(got, want) {
		t.Errorf("failed %v, want %v", got, want)
	}
	if f, err := fs.File(Input); err != nil || f.NumStripes() != 1 || !f.HasData() {
		t.Errorf("%s is not the corpus's one (12,10) stripe: %v", Input, err)
	}
	for _, c := range []struct {
		set  func(*Scenario)
		word string
	}{
		{func(s *Scenario) { s.FailAt = 5 }, "FailAt"},
		{func(s *Scenario) { s.Jobs = Paper().Jobs }, "Jobs"},
		{func(s *Scenario) { s.BlockSizeBytes = 1.5 }, "BlockSizeBytes"},
		{func(s *Scenario) { s.FailNodes = []topology.NodeID{12} }, "node 12"},
		{func(s *Scenario) { s.Nodes = 0 }, "Nodes"},
		{func(s *Scenario) { s.N = 3 }, "invalid"},
		{func(s *Scenario) { s.BlockSizeBytes = 0 }, "block size"},
		{func(s *Scenario) { s.NumBlocks = -1 }, "numBlocks"},
		{func(s *Scenario) { s.Failure = topology.RackFailure; s.Racks = 1 }, "rack failure"},
	} {
		s := Testbed()
		c.set(&s)
		if _, err := s.BuildTestbed(); err == nil || !strings.Contains(err.Error(), c.word) {
			t.Errorf("%q: error %v", c.word, err)
		}
	}
}
