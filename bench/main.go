// Command bench is the repository's end-to-end benchmark: six named
// workloads through the public entry points of the three MapReduce
// engines and the storage layer, every end-to-end metric by name with
// unit, direction and regression bound, output checks in the run itself,
// and a separate traced pass that attributes each run to the repo's
// layers from outside. See README.md.
//
// Usage (from this directory, or through run.sh from the repo root):
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-out FILE]   untraced pass
//	go run . -trace 1 [-workload NAME]                              traced pass
//	go run . -aa                                                    two untraced passes, compared
//	go run . -compare old.json new.json                             verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// workloads in run order. nominalS values were measured on the 2-core
// sandbox at the commit that added the benchmark.
var workloads = []*workload{
	simWorkload(wSimPaper, "the paper's default 40-node job under LF and EDF on 10 seeds: many short sims, carries the fidelity metric", 7.5, paperPlans),
	simWorkload(wSimScale, "one 200-node EDF job, 433k shuffle flows, mid-run failure and throttled healer: sim+netsim do nearly all the work", 9, scalePlans),
	simWorkload(wSimStorm, "2000 small fair-share jobs with hedged reads on a fat tree: jobsched, sched and the cancel path under many small flows", 8.5, stormPlans),
	{name: wDFS, why: "write, degraded-read and repair 1 GiB of real bytes with no simulator: gf256, erasure and dfs only", nominalS: 5.5, setUp: dfsSetUp},
	{name: wMinimr, why: "the paper's testbed job mix on real bytes in process under LF and EDF: minimr data path and shuffle allocation", nominalS: 7, setUp: minimrSetUp},
	{name: wLoopback, why: "the same job mix and schedule over 11 TCP workers on loopback: the cluster layer's framing, JSON and fetches", nominalS: 11, setUp: loopbackSetUp},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Report is the file -out writes and -compare reads.
type Report struct {
	Schema    string            `json:"schema"`
	GoVersion string            `json:"go_version"`
	NumCPU    int               `json:"num_cpu"`
	Workloads []*WorkloadReport `json:"workloads"`
}

const reportSchema = "degradedfirst-bench/1"

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	aa       bool
	compare  bool
	reportFD int
	args     []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	fl.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a fresh child process)")
	fl.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fl.Float64Var(&o.seconds, "seconds", 15, "measuring budget per workload; fixes the iteration count")
	fl.IntVar(&o.trace, "trace", 0, "1 runs the traced pass (per-layer metrics), 0 the untraced pass (end-to-end metrics)")
	fl.StringVar(&o.scale, "scale", "full", "full, or tiny for a smoke run")
	fl.StringVar(&o.out, "out", "", "write the report as JSON to this file")
	fl.BoolVar(&o.aa, "aa", false, "run every workload twice, back to back, and hold the two runs to the benchmark's own bounds")
	fl.BoolVar(&o.compare, "compare", false, "compare two report files: -compare old.json new.json")
	fl.IntVar(&o.reportFD, "report-fd", 0, "internal: write the workload report to this inherited descriptor")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.args = fl.Args()
	if o.scale != "full" && o.scale != "tiny" {
		fmt.Fprintf(stderr, "bench: unknown -scale %q (full or tiny)\n", o.scale)
		return 2
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	// Load comes from this one process; size it to the machine.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case o.compare:
		if len(o.args) != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareFiles(o.args[0], o.args[1], stdout, stderr)
	case o.aa:
		return runAA(o, stdout, stderr)
	case o.workload != "":
		return runOne(o, stdout, stderr)
	default:
		rep, code := runAll(o, stdout, stderr)
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return code
	}
}

// runOne runs one workload in this process, prints its metrics, and
// ends standard output with the one-line result the driver reads.
func runOne(o options, stdout, stderr io.Writer) int {
	w := workloadByName(o.workload)
	tiny := o.scale == "tiny"
	var rep *WorkloadReport
	if o.trace != 0 {
		rep = measureTraced(w, o.seed, tiny)
	} else {
		rep = measure(w, o.seed, tiny, iterationsFor(w, o.seconds))
	}
	printWorkload(stdout, rep)
	if o.reportFD > 0 {
		f := os.NewFile(uintptr(o.reportFD), "report")
		err := json.NewEncoder(f).Encode(rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing report:", err)
			return 1
		}
	}
	if err := writeReport(o.out, newFileReport(rep)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, resultLine(rep))
	if !rep.correct() {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "bench: FAILED:", f)
		}
		return 1
	}
	return 0
}

// resultLine is the driver's contract: correct, attempted, failed and
// the metrics of the pass — the end-to-end metrics every workload
// defines when untraced, every per-layer metric when traced.
func resultLine(rep *WorkloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if rep.Traced {
		for _, l := range layerMetrics {
			metrics[l.Name] = value{rep.Layers[l.Name].Value, l.Unit}
		}
	} else {
		for _, name := range contractMetrics {
			v := rep.Metrics[name]
			metrics[name] = value{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), max(rep.Attempted, 1), rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

// runAll runs every workload in a fresh child process each (so peak RSS
// and GC state are per workload) and gathers their reports.
func runAll(o options, stdout, stderr io.Writer) (*Report, int) {
	rep := newFileReport()
	code := 0
	for _, w := range workloads {
		wr, err := runChild(o, w.name, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		if wr != nil {
			rep.Workloads = append(rep.Workloads, wr)
		}
	}
	return rep, code
}

// runChild re-executes this binary for one workload. The child's report
// comes back over a pipe, its output goes to ours, and the child has
// exited by the time runChild returns.
func runChild(o options, name string, stdout, stderr io.Writer) (*WorkloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	cmd := exec.Command(exe,
		"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-scale", o.scale, "-report-fd", "3")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{pw}
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, err
	}
	pw.Close()
	var wr *WorkloadReport
	decodeErr := json.NewDecoder(pr).Decode(&wr)
	runErr := cmd.Wait()
	if decodeErr != nil {
		return nil, fmt.Errorf("no report from child (%v): %w", runErr, decodeErr)
	}
	return wr, runErr
}

func newFileReport(ws ...*WorkloadReport) *Report {
	return &Report{Schema: reportSchema, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Workloads: ws}
}

func writeReport(path string, rep *Report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// printWorkload prints one workload's metrics by name with unit,
// direction and bound.
func printWorkload(w io.Writer, rep *WorkloadReport) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (%s pass, seed %d, scale %s, GOMAXPROCS %d, %d iterations, digest %s)\n",
		rep.Name, pass, rep.Seed, rep.Scale, rep.Gomaxprocs, rep.Iterations, rep.Digest)
	if !rep.Traced {
		fmt.Fprintf(w, "  %-26s %14s  %-10s %-7s %-7s %s\n", "metric", "value", "unit", "better", "bound", "")
		for _, m := range endToEnd {
			v, ok := rep.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-26s %14.6g  %-10s %-7s %-7s %s\n", m.Name, v.Value, v.Unit, m.Better, fmtBound(m), v.Note)
		}
		return
	}
	fmt.Fprintf(w, "  %-30s %14s  %-6s %-40s %s\n", "layer metric", "value", "unit", "should move", "")
	for _, l := range layerMetrics {
		v := rep.Layers[l.Name]
		fmt.Fprintf(w, "  %-30s %14.6g  %-6s %-40s %s\n", l.Name, v.Value, v.Unit, l.Moves, v.Note)
	}
}
