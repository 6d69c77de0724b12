// Command dfsim runs one discrete-event MapReduce simulation and prints a
// summary — a workbench for exploring scheduling behaviour outside the
// registered experiments. It runs scenario.Paper, changed by a -scenario
// file and by -set Path=value, each naming a field as Go does.
//
// Example:
//
//	dfsim -set Scheduler=EDF -set Seed=7 -set Failure=double-node
//	dfsim -scenario examples/scenarios/edf_400.json -set Hedge.Extra=1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// -help and -h print the usage, which is what they ask for: exit 0.
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dfsim:", err)
		os.Exit(1)
	}
}

// A command is dfsim's parsed command line.
type command struct {
	scenario.Scenario
	timeline         bool
	traceOut, cpuOut string
}

func parse(args []string, out io.Writer) (command, error) {
	fs := flag.NewFlagSet("dfsim", flag.ContinueOnError)
	var c command
	fs.BoolVar(&c.timeline, "timeline", false, "render the map-slot activity timeline (Figure 3 style)")
	fs.StringVar(&c.traceOut, "trace", "", "write structured trace events (JSON lines) to this file")
	fs.StringVar(&c.cpuOut, "cpuprofile", "", "write a CPU profile of the run (runtime/pprof) to this file")
	apply := scenario.Flags(fs)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.Scenario = scenario.Paper()
	if err := apply(&c.Scenario); err != nil {
		return c, err
	}
	if len(c.Testbed) > 0 {
		return c, errors.New("Testbed jobs run on real bytes, under dfmaster")
	}
	return c, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	c, err := parse(args, stdout)
	if err != nil {
		return err
	}
	var traceSink *trace.JSONL
	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			return err
		}
		traceSink = trace.NewJSONL(f)
		// Close is idempotent: this covers early error returns, while the
		// explicit Close below surfaces deferred write errors.
		defer traceSink.Close()
		c.Trace = traceSink
		c.TraceLabel = "dfsim"
	}

	var prof *os.File
	if c.cpuOut != "" {
		if prof, err = os.Create(c.cpuOut); err != nil {
			return err
		}
		defer prof.Close() // error paths; the profile's own Close is checked below
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	res, err := mapred.RunContext(ctx, c.Config, c.Jobs)
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
	fmt.Fprintf(stdout, "task classes:       %v\n", jr.CountByClass())
	fmt.Fprintf(stdout, "mean normal map:    %.2f s\n", jr.MeanNormalMapRuntime())
	if jr.MeanDegradedRuntime() > 0 {
		fmt.Fprintf(stdout, "mean degraded map:  %.2f s\n", jr.MeanDegradedRuntime())
		fmt.Fprintf(stdout, "mean degraded read: %.2f s\n", jr.MeanDegradedReadTime())
	}
	if len(jr.Reduces) > 0 {
		fmt.Fprintf(stdout, "mean reduce:        %.2f s\n", jr.MeanReduceRuntime())
	}
	fmt.Fprintf(stdout, "network volume:     %.1f GB\n", res.BytesMoved/1e9)
	if c.timeline {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, runtime.Timeline(res, 0, 100))
	}
	return nil
}
