package main

import (
	"fmt"
	"math"
)

// A metric is either measured on the host (wall time, memory: noisy,
// compared within a bound) or on the virtual clock / by counting
// (deterministic for a seed, compared exactly by -aa).
type metricKind int

const (
	hostMetric metricKind = iota
	simMetric
)

// metricDef is one end-to-end metric: its name, unit, direction and the
// bound by which it may move in the bad direction before -compare calls
// it a regression. Bound is a share of the base value unless Abs is set,
// in which case it is in the metric's own unit (percentage points).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Abs    bool
	Kind   metricKind
}

// Workload names, in run order.
const (
	wSimPaper = "sim-paper"
	wSimScale = "sim-scale"
	wSimStorm = "sim-storm"
	wDFS      = "dfs-ingest-heal"
	wMinimr   = "minimr-testbed"
	wLoopback = "cluster-loopback"
)

// timeBound is the bound on every host-time metric. The sandbox this was
// sized on shares its clock budget and its last-level cache with other
// tenants: for minutes at a time the simulators run 20-40 % slower. Every
// time is therefore reported at the reference host pace (pace.go), which
// takes out about half of a swing; the bound has to span what is left,
// since no statistic within a 15 s run removes it. alloc_gb and the
// simulated metrics are untouched by it and keep tight bounds.
const timeBound = 0.25

// driverBound is the bound /BENCHMARK.json gives every metric it lists,
// alloc_gb and peak_rss_mb included. The driver takes a metric's spread
// over runs on ten different seeds, and the seed moves the work itself
// (which node fails, where blocks land: sim-scale allocates 2.8-3.2 GB
// depending on it), so the like-seed bounds below do not apply there.
// It is also the largest bound the driver's schema allows.
const driverBound = 0.25

// endToEnd lists every end-to-end metric in report order. A workload
// emits the subset its outcome defines (see README "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", timeBound, false, hostMetric},                    // host time before the timed section at the reference pace (median over set-ups)
	{"run_s", "s", "lower", timeBound, false, hostMetric},                      // host time of the timed section at the reference pace (median over iterations)
	{"tasks_per_s", "1/s", "higher", timeBound, false, hostMetric},             // map+reduce task completions (block operations on dfs-ingest-heal) per second of run_s
	{"input_mb_per_s", "MB/s", "higher", timeBound, false, hostMetric},         // real job input bytes per host second
	{"ingest_mb_per_s", "MB/s", "higher", timeBound, false, hostMetric},        // user bytes through dfs.FS.Write per host second
	{"degraded_read_mb_per_s", "MB/s", "higher", timeBound, false, hostMetric}, // bytes reconstructed by DegradedRead per host second
	{"repair_mb_per_s", "MB/s", "higher", timeBound, false, hostMetric},        // bytes committed by RepairBlock (verify included) per host second
	{"alloc_gb", "GB", "lower", 0.03, false, hostMetric},                       // TotalAlloc delta over one set-up + run (median)
	{"peak_rss_mb", "MB", "lower", 0.15, false, hostMetric},                    // VmHWM of the workload's process
	{"sim_makespan_s", "virtual_s", "lower", 0.01, false, simMetric},           // mean Result.Makespan (EDF runs where both schedulers run)
	{"edf_vs_lf_reduction_pct", "%", "higher", 1, true, simMetric},             // (mean LF job runtime - mean EDF) / mean LF
	{"net_gb_moved", "GB", "lower", 0.01, false, simMetric},                    // BytesMoved + WastedBytes over all runs
	{"degraded_read_p99_s", "virtual_s", "lower", 0.01, false, simMetric},      // p99 degraded-read time (max when fewer than 1000 samples)
	{"heal_time_s", "virtual_s", "lower", 0.01, false, simMetric},              // RepairStats.FullRedundancyAt - FailAt
	{"failed_ops_pct", "%", "lower", 0, true, simMetric},                       // failed / attempted operations
}

// contractMetrics are the end-to-end metrics every workload defines, so
// the driver line (and BENCHMARK.json) carries exactly these. tasks_per_s
// is not among them: it is a workload's fixed task count over run_s, so
// it would put the same noise to the driver's spread check a second time.
var contractMetrics = []string{"run_s", "alloc_gb", "peak_rss_mb", "setup_s"}

func metricByName(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// Value is one reported number. Spread is the run-to-run spread of a
// host metric: the relative difference of the two passes of an -aa run,
// which is the only place it is measured (see WorkloadReport.Passes).
type Value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// sameBits is equality bit for bit: what "deterministic for a seed"
// promises of a simulated number.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// worsening returns how far got moved from base in the metric's bad
// direction, as a share of base (or in the metric's unit when Abs).
// Negative means it improved.
func worsening(m metricDef, base, got float64) float64 {
	d := got - base
	if m.Better == "higher" {
		d = -d
	}
	if m.Abs {
		return d
	}
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(base)
}

func fmtBound(m metricDef) string {
	if m.Abs {
		return fmt.Sprintf("%g pt", m.Bound)
	}
	return fmt.Sprintf("%g%%", m.Bound*100)
}
