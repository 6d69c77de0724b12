// Command dfbench measures the simulator's performance-critical paths and
// writes the results as JSON. Every workload is timed twice — once through
// the optimized implementation and once through the retained reference —
// so each report carries its own before/after numbers.
//
// Five suites are available, chosen with -suite:
//
//   - netsim: flow-churn scheduling through the incremental max-min
//     solver, lazy cancellation, and batched admission against the
//     reference configuration (BENCH_netsim.json by convention);
//   - jobsched: multi-tenant job storms through the job-level
//     scheduler's indexed reducer cursor against the retained full
//     rescan (BENCH_jobsched.json by convention);
//   - hedge: hedged degraded-read fan-ins (k+Δ races, deadline hedging)
//     against the unhedged baseline, with simulated latency percentiles
//     and wasted volume per case (BENCH_hedge.json by convention);
//   - topology: multi-tier scale — 10k-node network construction with
//     lazy link naming, and fat-tree flow churn at 1k/10k nodes with
//     100k-flow storms (BENCH_topology.json by convention);
//   - repair: the background healer competing with a foreground job at
//     several bandwidth caps against the repair-off baseline, with the
//     simulated healing outcome per case (BENCH_repair.json by
//     convention).
//
// Usage:
//
//	dfbench -suite netsim        # print JSON to stdout
//	dfbench -suite netsim -out BENCH_netsim.json
//	dfbench -suite jobsched -out BENCH_jobsched.json
//	dfbench -suite hedge -out BENCH_hedge.json
//	dfbench -suite topology -out BENCH_topology.json
//	dfbench -suite repair -out BENCH_repair.json
//	dfbench -suite netsim -mintime 500ms   # time each case for at least 500ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dfbench:", err)
		os.Exit(1)
	}
}

// Result is one timed case.
type Result struct {
	Name    string  `json:"name"`
	Variant string  `json:"variant"` // which side of the case's comparison, e.g. "incremental" or "reference"
	Bytes   int64   `json:"bytes_per_op"`
	NsPerOp float64 `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s"`
	N       int     `json:"iterations"`
	// AllocBytes is the heap allocated per op (final batch average),
	// the figure of merit for the construction and churn scale cases.
	AllocBytes int64 `json:"alloc_bytes_per_op,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    []Result           `json:"results"`
	Speedups   map[string]float64 `json:"speedups"`
	// Hedge carries the hedge suite's simulated latency/waste outcomes
	// (empty for the other suites).
	Hedge []HedgeCase `json:"hedge,omitempty"`
	// Repair carries the repair suite's simulated healing outcomes
	// (empty for the other suites).
	Repair []RepairCase `json:"repair,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	minTime := fs.Duration("mintime", 200*time.Millisecond, "minimum measurement time per case")
	suite := fs.String("suite", "", `benchmark suite (required): "netsim", "jobsched", "hedge", "topology" or "repair"`)
	scaleFlows := fs.Int("scaleflows", 100000, "flow count of the topology suite's churn storm")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep := Report{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Speedups:   map[string]float64{},
	}

	switch *suite {
	case "netsim":
		netsimResults(&rep, *minTime, stderr)
	case "jobsched":
		jobschedResults(&rep, *minTime, stderr)
	case "hedge":
		hedgeResults(&rep, *minTime, stderr)
	case "repair":
		repairResults(&rep, *minTime, stderr)
	case "topology":
		if *scaleFlows <= 0 {
			return fmt.Errorf("scaleflows must be positive, got %d", *scaleFlows)
		}
		topologyResults(&rep, *minTime, *scaleFlows, stderr)
	default:
		return fmt.Errorf("unknown suite %q (want -suite netsim, jobsched, hedge, topology or repair)", *suite)
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// measure runs fn repeatedly, doubling the iteration count until the batch
// takes at least minTime, then reports per-op cost (time and heap bytes)
// from the final batch.
func measure(bytes int64, minTime time.Duration, fn func(n int)) Result {
	n := 1
	var ms1, ms2 runtime.MemStats
	for {
		runtime.ReadMemStats(&ms1)
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms2)
		if elapsed >= minTime || n >= 1<<30 {
			ns := float64(elapsed.Nanoseconds()) / float64(n)
			mbps := 0.0
			if ns > 0 {
				mbps = float64(bytes) / ns * 1e9 / (1 << 20)
			}
			return Result{Bytes: bytes, NsPerOp: ns, MBPerS: mbps, N: n,
				AllocBytes: int64(ms2.TotalAlloc-ms1.TotalAlloc) / int64(n)}
		}
		if elapsed <= 0 {
			n *= 1024
			continue
		}
		// Aim past minTime with some headroom, at most 100x at a time.
		grow := int(float64(minTime)/float64(elapsed)*1.2) + 1
		if grow > 100 {
			grow = 100
		}
		n *= grow
	}
}
