// Command dfmaster runs the distributed master: it builds the testbed
// world of a scenario (scenario.Testbed, changed by a -scenario file and
// by -set Path=value) in memory, listens for dfworker registrations, and
// once every alive node has a worker, runs the scenario's Testbed jobs
// across them, printing the result as JSON on stdout.
//
// The listen address is announced on stderr as "dfmaster: listening on
// ADDR" so scripts (and the end-to-end test) can start workers against
// a kernel-assigned port. Each worker the master declares dead is logged
// there too, with the reason: missed heartbeats, a lost connection, or a
// failed or unreachable RPC.
//
// Usage:
//
//	dfmaster -addr 127.0.0.1:7400 -scenario examples/scenarios/testbed.json &
//	for i in $(seq 12); do dfworker -master 127.0.0.1:7400 & done
//
//	dfmaster -set 'FailNodes=[3]' -set Scheduler=EDF -set Testbed.0.kind=grep -set Testbed.0.word=the
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/trace"
)

func main() {
	// -help and -h print the usage, which is what they ask for: exit 0.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dfmaster:", err)
		os.Exit(1)
	}
}

// parse reads the command line into the scenario and the master's
// deployment settings.
func parse(args []string) (scenario.Scenario, cluster.MasterOptions, error) {
	fl := flag.NewFlagSet("dfmaster", flag.ContinueOnError)
	var o cluster.MasterOptions
	fl.StringVar(&o.Addr, "addr", "127.0.0.1:0", "listen address for worker registration")
	fl.DurationVar(&o.HeartbeatEvery, "hb-every", 500*time.Millisecond, "real worker heartbeat period")
	fl.IntVar(&o.HeartbeatMiss, "hb-miss", 4, "missed heartbeats before a worker is declared dead")
	fl.DurationVar(&o.RPCTimeout, "rpc-timeout", 30*time.Second, "per-RPC deadline")
	apply := scenario.Flags(fl)
	fl.SetOutput(os.Stderr)
	s := scenario.Testbed()
	err := fl.Parse(args)
	if err == nil {
		err = apply(&s)
	}
	return s, o, err
}

func run(args []string) error {
	s, o, err := parse(args)
	if err != nil {
		return err
	}
	fs, err := s.BuildTestbed()
	if err != nil {
		return err
	}
	o.Engine = s.Options
	o.Engine.Trace = lostLog{}
	m, err := cluster.NewMaster(fs, o)
	if err != nil {
		return err
	}
	defer m.Close()
	fmt.Fprintf(os.Stderr, "dfmaster: listening on %s (waiting for %d workers)\n",
		m.Addr(), len(fs.Cluster().AliveNodes()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := m.Run(ctx, s.Testbed)
	if err != nil {
		return err
	}

	doc := map[string]any{
		"scheduler":   rep.Scheduler,
		"failed":      rep.Failed,
		"makespan":    rep.Makespan,
		"bytes_moved": rep.BytesMoved,
		"outputs":     rep.Outputs,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// lostLog logs the master's worker-lost events on stderr and drops the
// rest of the trace.
type lostLog struct{}

func (lostLog) Emit(e trace.Event) {
	if e.Type == trace.EvWorkerLost {
		fmt.Fprintf(os.Stderr, "dfmaster: node %d lost at %.3fs: %s\n", e.Node, e.T, e.Name)
	}
}
