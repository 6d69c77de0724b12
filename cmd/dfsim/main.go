// Command dfsim runs one discrete-event MapReduce simulation and prints a
// summary — a workbench for exploring scheduling behaviour outside the
// registered experiments.
//
// Example:
//
//	dfsim -nodes 40 -racks 4 -n 20 -k 15 -blocks 1440 -sched EDF -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dfsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dfsim", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 40, "number of nodes")
		racks    = fs.Int("racks", 4, "number of racks")
		mapSlots = fs.Int("map-slots", 4, "map slots per node")
		redSlots = fs.Int("reduce-slots", 1, "reduce slots per node")
		n        = fs.Int("n", 20, "erasure code n")
		k        = fs.Int("k", 15, "erasure code k")
		blocks   = fs.Int("blocks", 1440, "native blocks (map tasks)")
		blockMB  = fs.Float64("block-mb", 128, "block size in MB")
		rackMbps = fs.Float64("rack-mbps", 1000, "rack bandwidth in Mbps")
		schedStr = fs.String("sched", "LF", "scheduler: LF, BDF, EDF, EagerDF or DelayLF")
		jsStr    = fs.String("jobsched", "", "job-level policy: fifo (default), fairshare, quota or deadline")
		failStr  = fs.String("failure", "single", "failure: none, single-node, double-node, rack (single and double also work)")
		reducers = fs.Int("reducers", 30, "reduce tasks")
		shuffle  = fs.Float64("shuffle", 0.01, "shuffle ratio (intermediate/input)")
		mapTime  = fs.Float64("map-time", 20, "mean map task time (s)")
		redTime  = fs.Float64("reduce-time", 30, "mean reduce task time (s)")
		seed     = fs.Int64("seed", 0, "random seed")
		hold     = fs.Bool("hold", false, "use exclusive-hold network contention instead of fluid sharing")
		timeline = fs.Bool("timeline", false, "render the map-slot activity timeline (Figure 3 style)")
		traceOut = fs.String("trace", "", "write structured trace events (JSON lines) to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run (runtime/pprof) to this file")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := sched.ParseKind(*schedStr)
	if err != nil {
		return err
	}
	jsKind, err := jobsched.ParseKind(*jsStr)
	if err != nil {
		return err
	}
	failure, err := parseFailure(*failStr)
	if err != nil {
		return err
	}

	cfg := mapred.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Racks = *racks
	cfg.MapSlotsPerNode = *mapSlots
	cfg.ReduceSlotsPerNode = *redSlots
	cfg.N, cfg.K = *n, *k
	cfg.NumBlocks = *blocks
	cfg.BlockSizeBytes = *blockMB * 1e6
	cfg.RackBps = *rackMbps * netsim.Mbps
	cfg.Scheduler = kind
	cfg.JobSched = jobsched.Config{Policy: jsKind}
	cfg.Failure = failure
	cfg.Seed = *seed
	if *hold {
		cfg.NetMode = netsim.ExclusiveHold
	}
	job := mapred.JobSpec{
		Name:           "job",
		MapTime:        mapred.Dist{Mean: *mapTime, Std: *mapTime / 20},
		ReduceTime:     mapred.Dist{Mean: *redTime, Std: *redTime / 15},
		NumReduceTasks: *reducers,
		ShuffleRatio:   *shuffle,
	}
	var traceSink *trace.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceSink = trace.NewJSONL(f)
		// Close is idempotent: this covers early error returns, while the
		// explicit Close below surfaces deferred write errors.
		defer traceSink.Close()
		cfg.Trace = traceSink
		cfg.TraceLabel = "dfsim"
	}

	var prof *os.File
	if *cpuProf != "" {
		if prof, err = os.Create(*cpuProf); err != nil {
			return err
		}
		defer prof.Close() // error paths; the profile's own Close is checked below
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	res, err := mapred.RunContext(ctx, cfg, []mapred.JobSpec{job})
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing CPU profile: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	jr := res.Jobs[0]
	fmt.Fprintf(stdout, "scheduler:          %s\n", res.Scheduler)
	fmt.Fprintf(stdout, "failed nodes:       %v\n", res.Failed)
	fmt.Fprintf(stdout, "job runtime:        %.1f s\n", jr.Runtime())
	fmt.Fprintf(stdout, "map phase:          %.1f s\n", jr.MapPhaseEnd-jr.FirstMapLaunch)
	counts := jr.CountByClass()
	fmt.Fprintf(stdout, "task classes:       %v\n", counts)
	fmt.Fprintf(stdout, "mean normal map:    %.2f s\n", jr.MeanNormalMapRuntime())
	if jr.MeanDegradedRuntime() > 0 {
		fmt.Fprintf(stdout, "mean degraded map:  %.2f s\n", jr.MeanDegradedRuntime())
		fmt.Fprintf(stdout, "mean degraded read: %.2f s\n", jr.MeanDegradedReadTime())
	}
	if len(jr.Reduces) > 0 {
		fmt.Fprintf(stdout, "mean reduce:        %.2f s\n", jr.MeanReduceRuntime())
	}
	fmt.Fprintf(stdout, "network volume:     %.1f GB\n", res.BytesMoved/1e9)
	if *timeline {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, runtime.Timeline(res, 0, 100))
	}
	return nil
}

// parseFailure accepts a pattern's name, or the name without its "-node"
// suffix ("single" for "single-node"), in any case.
func parseFailure(s string) (topology.FailurePattern, error) {
	low := strings.ToLower(s)
	var names []string
	for p := topology.NoFailure; p <= topology.RackFailure; p++ {
		name := p.String()
		if low == name || low == strings.TrimSuffix(name, "-node") {
			return p, nil
		}
		names = append(names, name)
	}
	return 0, fmt.Errorf("unknown failure %q (%s)", s, strings.Join(names, ", "))
}
