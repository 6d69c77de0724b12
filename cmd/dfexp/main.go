// Command dfexp regenerates the paper's tables and figures.
//
// Usage:
//
//	dfexp -list                 # list registered experiments
//	dfexp -run fig7a,fig8c      # run specific experiments
//	dfexp -all                  # run everything
//	dfexp -all -quick           # smoke-scale run
//	dfexp -run fig7a -seeds 30  # override the sample count
//	dfexp -all -out results.txt # also write the output to a file
//	dfexp -run fig3 -trace out.jsonl   # dump structured trace events
//	dfexp -run fig5a -format json      # also write results/fig5a.json
//	dfexp -run fig8a -set 'SpeedFactors={"0":2,"2":2}'  # change every point
//
// A -scenario file and each -set Path=value change every point's
// scenario after its experiment declares it; each run's seed and
// scheduler are still the experiment's.
//
// A Ctrl-C (SIGINT) cancels in-flight simulation runs and exits with an
// error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"degradedfirst/internal/exp"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/scenario"
	"degradedfirst/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dfexp:", err)
		os.Exit(1)
	}
}

// expSink stamps every event's Run label with the experiment ID so one
// trace file can hold several experiments' events.
type expSink struct {
	id   string
	sink trace.Sink
}

func (s expSink) Emit(e trace.Event) {
	if e.Run == "" {
		e.Run = s.id
	} else {
		e.Run = s.id + "/" + e.Run
	}
	s.sink.Emit(e)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dfexp", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list registered experiments and exit")
		runID     = fs.String("run", "", "comma-separated experiment IDs to run")
		all       = fs.Bool("all", false, "run every registered experiment")
		seeds     = fs.Int("seeds", 0, "override the per-experiment sample count")
		quick     = fs.Bool("quick", false, "smoke-scale workloads (fewer seeds, smaller jobs)")
		out       = fs.String("out", "", "also write results to this file")
		format    = fs.String("format", "text", "output format: text, csv or json")
		traceOut  = fs.String("trace", "", "write structured trace events (JSON lines) to this file")
		resultDir = fs.String("results", "results", "directory for per-experiment JSON results (with -format json)")
		jobSched  = fs.String("jobsched", "", "restrict the jobsched experiment to one job-level policy: fifo, fairshare, quota or deadline")
		apply     = scenario.Flags(fs)
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every flag is checked before any experiment runs, so a typo fails
	// at once rather than after the runs before it.
	switch *format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (text, csv, json)", *format)
	}
	if _, err := jobsched.ParseKind(*jobSched); err != nil {
		return err
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds must be non-negative, got %d", *seeds)
	}
	// A change must fit the simulated world or the testbed.
	if sim, tb := scenario.Paper(), scenario.Testbed(); apply(&sim) != nil {
		if err := apply(&tb); err != nil {
			return err
		}
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
			fmt.Fprintf(stdout, "%-18s paper: %s\n", "", e.Paper)
		}
		return nil
	}

	var targets []exp.Experiment
	switch {
	case *all:
		targets = exp.All()
	case *runID != "":
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.Get(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q; valid IDs: %s", id, strings.Join(validIDs(), ", "))
			}
			targets = append(targets, e)
		}
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -run or -all")
	}

	writers := []io.Writer{stdout}
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the explicit Close below is checked
		outFile = f
		writers = append(writers, f)
	}
	w := io.MultiWriter(writers...)

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
	}

	if *format == "json" {
		if err := os.MkdirAll(*resultDir, 0o755); err != nil {
			return err
		}
	}

	opts := exp.Options{Seeds: *seeds, Quick: *quick, JobSched: *jobSched, Scenario: apply}
	for _, e := range targets {
		if traceSink != nil {
			opts.Trace = expSink{id: e.ID, sink: traceSink}
		}
		start := time.Now()
		tab, err := e.Run(ctx, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch *format {
		case "text":
			_, err = fmt.Fprintf(w, "%s\npaper: %s\n(took %v)\n\n", tab, e.Paper, time.Since(start).Round(time.Millisecond))
		case "csv":
			_, err = fmt.Fprintf(w, "# %s: %s\n%s\n", tab.ID, tab.Title, tab.CSV())
		case "json":
			var js []byte
			if js, err = json.Marshal(tab); err == nil {
				_, err = fmt.Fprintf(w, "%s\n", js)
			}
			if err == nil {
				err = writeResultFile(*resultDir, tab)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: writing results: %w", e.ID, err)
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

func validIDs() []string {
	var ids []string
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// writeResultFile stores one experiment's table as stable, diffable JSON:
// map keys are sorted by encoding/json, cell values carry the tables' own
// fixed float precision, and the file ends in a newline.
func writeResultFile(dir string, tab *exp.Table) error {
	doc := map[string]any{
		"id":      tab.ID,
		"title":   tab.Title,
		"columns": tab.Columns,
		"rows":    tab.Rows,
	}
	if len(tab.Notes) > 0 {
		doc["notes"] = tab.Notes
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, tab.ID+".json")
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
