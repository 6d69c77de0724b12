package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestTinySmoke runs the traced pass of all six workloads at -scale
// tiny — an untraced iteration, a traced one, the replays and probes —
// and -compare on the result: the benchmark compiles, its output checks
// pass on today's engines, every metric it promises is there, and the
// replay's fidelity check holds.
func TestTinySmoke(t *testing.T) {
	file := newFileReport()
	for _, w := range workloads {
		traced := measureTraced(w, 1, true)
		if !traced.correct() {
			t.Fatalf("%s: %d of %d operations failed: %v", w.name, traced.Failed, traced.Attempted, traced.Failures)
		}
		untraced := *traced
		untraced.Traced = false
		for _, name := range contractMetrics {
			if v, ok := untraced.Metrics[name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, name, v.Value)
			}
		}
		checkResultLine(t, &untraced, contractMetrics)
		file.Workloads = append(file.Workloads, &untraced)
		names := make([]string, len(layerMetrics))
		shares := 0.0
		for i, l := range layerMetrics {
			names[i] = l.Name
			v, ok := traced.Layers[l.Name]
			if !ok {
				t.Errorf("%s traced: layer metric %s missing", w.name, l.Name)
			}
			if strings.HasPrefix(l.Name, "cpu_share.") {
				shares += v.Value
			}
			if strings.HasPrefix(v.Note, "invalid") && !strings.HasPrefix(l.Name, "cpu_share.") {
				t.Errorf("%s traced: %s is %s", w.name, l.Name, v.Note)
			}
		}
		// A tiny timed section can end before the profiler's first tick;
		// then every share is 0 and the note says so.
		if shares != 0 && math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s traced: cpu shares sum to %v, want 1", w.name, shares)
		}
		if strings.HasPrefix(w.name, "sim-") && traced.Layers["netsim.replay_s"].Value <= 0 {
			t.Errorf("%s traced: no replay time", w.name)
		}
		checkResultLine(t, traced, names)
		// The report carries the spans: the set-up and run roots and, under
		// them, at least one call into a layer.
		if len(traced.Spans) < 3 {
			t.Errorf("%s traced: %d spans in the report, want the two roots and their children", w.name, len(traced.Spans))
		}
		for i, sp := range traced.Spans {
			if sp.Parent >= i || sp.End < sp.Start || sp.Run == "" {
				t.Errorf("%s traced: span %d is %+v", w.name, i, sp)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(path, file); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(path, path, &out, &errOut); code != 0 {
		t.Fatalf("-compare of a report with itself exited %d: %s%s", code, out.String(), errOut.String())
	}
	// A plain report says nothing of how far a host metric moves between
	// runs, so against itself every host row must read unresolved, never
	// unchanged; the simulated metrics need no spread.
	if bad := compareRows(t, out.String(), "unresolved", "within bound"); bad != "" {
		t.Errorf("-compare of a plain report with itself: %s", bad)
	}
	// The same numbers as an -aa report (two passes, no difference seen).
	for _, w := range file.Workloads {
		w.Passes = 2
	}
	out.Reset()
	if code := compareReports(file, file, &out); code != 0 {
		t.Fatalf("-compare of an -aa report with itself exited %d: %s", code, out.String())
	}
	if bad := compareRows(t, out.String(), "within bound", "within bound"); bad != "" {
		t.Errorf("-compare of an -aa report with itself: %s", bad)
	}
}

// compareRows checks -compare's output: every contract metric and
// failed_ops_pct has a row per workload, host rows start with wantHost
// and simulated rows with wantSim. It returns the first offence.
func compareRows(t *testing.T, out, wantHost, wantSim string) string {
	t.Helper()
	rows := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] == "workload" {
			continue
		}
		m, ok := metricByName(f[1])
		if !ok {
			return "unknown metric: " + line
		}
		want := wantHost
		if m.Kind == simMetric {
			want = wantSim
		}
		if verdict := strings.Join(f[5:], " "); !strings.HasPrefix(verdict, want) {
			return "want " + want + ": " + line
		}
		rows[f[1]]++
	}
	for _, name := range append([]string{"failed_ops_pct"}, contractMetrics...) {
		if rows[name] != len(workloads) {
			return fmt.Sprintf("%d %s rows, want %d:\n%s", rows[name], name, len(workloads), out)
		}
	}
	return ""
}

// checkResultLine holds the driver line to its contract: exactly the
// four keys, and exactly the named metrics, each a value and a unit.
func checkResultLine(t *testing.T, rep *WorkloadReport, want []string) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(resultLine(rep)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("%s: result line has keys %v, want correct, attempted, failed, metrics", rep.Name, line)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, want %d", rep.Name, len(metrics), len(want))
	}
	for _, name := range want {
		if m, ok := metrics[name]; !ok || m.Value == nil || m.Unit == "" {
			t.Errorf("%s: result line lacks %s", rep.Name, name)
		}
	}
}

// TestBenchmarkJSON keeps /BENCHMARK.json and the code in step: the same
// workloads, the same end-to-end metrics with unit, direction and the
// driver-side bound, the same per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(contractMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(doc.EndToEnd), len(contractMetrics))
	}
	for i, name := range contractMetrics {
		m, _ := metricByName(name)
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
		if got.Bound == nil || *got.Bound != driverBound {
			t.Errorf("end-to-end metric %s: BENCHMARK.json has bound %v, the code's driverBound is %v", m.Name, got.Bound, driverBound)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		got := doc.PerLayer[i]
		if got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %s %s %s", i, got, l.Name, l.Unit, l.Better)
		}
	}
}

// TestCPUShares folds a real profile of this process and checks the
// bucket rules on hand-written stacks.
func TestCPUShares(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"degradedfirst/internal/netsim.(*Net).recompute", "degradedfirst/internal/runtime.Run"}, "netsim"},
		{[]string{"degradedfirst/internal/runtime.(*state).heartbeat"}, "runtime"},
		{[]string{"degradedfirst/internal/stats.(*RNG).Intn"}, "other"},
		{[]string{"container/heap.down", "degradedfirst/internal/sim.(*Engine).Step"}, "heap"},
		{[]string{"encoding/json.(*decodeState).object"}, "json"},
		{[]string{"internal/poll.(*FD).Read", "net.(*conn).Read"}, "netpoll"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "degradedfirst/internal/minimr.run"}, "gc"},
		{[]string{"runtime.memmove", "degradedfirst/internal/minimr.run"}, "minimr"},
		{[]string{"bytes.Fields", "degradedfirst/internal/minimr.run", "degradedfirst/internal/runtime.Run"}, "minimr"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	if err := codecProbes(12, 10, 64<<10, out); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("a codec-only profile folded to %v: sum %v, want 1", shares, sum)
	}
	// Under the race detector its own runtime calls lead, in "other".
	for l, v := range shares {
		if l != "gf256" && l != "other" && v >= shares["gf256"] {
			t.Errorf("a codec-only profile folded to %v, want gf256 ahead of %s", shares, l)
		}
	}
}

func TestVerdicts(t *testing.T) {
	run, _ := metricByName("run_s")
	rate, _ := metricByName("tasks_per_s")
	alloc, _ := metricByName("alloc_gb")
	makespan, _ := metricByName("sim_makespan_s")
	for _, tc := range []struct {
		m         metricDef
		base, got Value
		measured  bool
		want      string
	}{
		{run, Value{Value: 10}, Value{Value: 11.5}, true, "within bound"},
		{run, Value{Value: 10}, Value{Value: 13}, true, "regressed"},
		{run, Value{Value: 10}, Value{Value: 7}, true, "better"},
		{rate, Value{Value: 100}, Value{Value: 70}, true, "regressed"},
		{rate, Value{Value: 100}, Value{Value: 130}, true, "better"},
		// A gain counts only beyond both the bound and the spread.
		{run, Value{Value: 10}, Value{Value: 8}, true, "within bound"},
		{alloc, Value{Value: 2, Spread: 0.01}, Value{Value: 1.95}, true, "within bound"},
		{alloc, Value{Value: 2, Spread: 0.01}, Value{Value: 1.9}, true, "better"},
		{alloc, Value{Value: 2}, Value{Value: 2.1}, true, "regressed"},
		{alloc, Value{Value: 2, Spread: 0.01}, Value{Value: 2.01}, true, "within bound"},
		// Noise wider than the bound is unresolved, and so is noise nobody
		// measured: in a plain report Spread is 0 for want of a second pass.
		{run, Value{Value: 10, Spread: 0.3}, Value{Value: 8}, true, "unresolved"},
		{run, Value{Value: 10}, Value{Value: 7}, false, "unresolved"},
		{run, Value{Value: 10}, Value{Value: 13}, false, "unresolved"},
		// Simulated metrics repeat exactly and need no second pass.
		{makespan, Value{Value: 260}, Value{Value: 260}, false, "within bound"},
		{makespan, Value{Value: 260}, Value{Value: 264}, false, "regressed"},
		{makespan, Value{Value: 260}, Value{Value: 250}, false, "better"},
	} {
		if got := verdictFor(tc.m, tc.base, tc.got, tc.measured); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s %v -> %v (spread measured: %v): verdict %q, want %q", tc.m.Name, tc.base, tc.got, tc.measured, got, tc.want)
		}
	}
}

// TestPace checks the pace kernel's two promises: the chase is one cycle
// through every slot, so no part of the chain can stay cached, and a
// section read at the reference burst times has factor 1.
func TestPace(t *testing.T) {
	p := newPacer()
	defer p.close()
	at, hops := uint32(0), 0
	for {
		at = binary.LittleEndian.Uint32(p.chain[4*at:])
		hops++
		if at == 0 || hops > paceChainWords {
			break
		}
	}
	if hops != paceChainWords {
		t.Errorf("the chase returns to its start after %d hops, want %d", hops, paceChainWords)
	}
	ref := pace{ClockS: paceClockRefS, L3S: paceL3RefS}
	if f := paceFactor(ref, ref); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor at the reference pace is %v, want 1", f)
	}
	slow := pace{ClockS: paceClockRefS, L3S: 2 * paceL3RefS}
	if f := paceFactor(ref, slow); math.Abs(f-(1+paceL3Share/2)) > 1e-12 {
		t.Errorf("factor with the L3 twice as slow after the section is %v, want %v", f, 1+paceL3Share/2)
	}
	if r := p.read(1); !(r.ClockS > 0 && r.L3S > 0) {
		t.Errorf("a reading of %+v, want two positive burst times", r)
	}
}
