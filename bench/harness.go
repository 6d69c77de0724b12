package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	rt "degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/trace"
)

// env is what one iteration of a workload sees: the seed its inputs are
// made from, the scale, the host-pace kernel and — in the traced pass
// only — the sink and the span log. sink and spans are nil in the
// untraced pass.
type env struct {
	seed  int64
	tiny  bool
	pacer *pacer
	sink  *countSink
	spans *spanLog
}

// traceSink returns the sink as a trace.Sink that is a true nil
// interface when tracing is off (a typed nil would make the engines
// emit into a nil receiver).
func (e *env) traceSink() trace.Sink {
	if e.sink == nil {
		return nil
	}
	return e.sink
}

// A workload builds a fresh instance per iteration in setUp (timed as
// setup_s) and runs its timed section in instance.run (timed as run_s).
type workload struct {
	name string
	why  string
	// nominalS is the host time of one timed iteration at the commit
	// that added the benchmark; with -seconds it fixes the iteration
	// count, so two commits under comparison run the same number of
	// iterations (alloc_gb and peak_rss_mb depend on it).
	nominalS float64
	setUp    func(e *env) (instance, error)
}

type instance interface {
	// run is the timed section: it calls the engines' public entry points
	// and returns what they returned.
	run(e *env) (*outcome, error)
	// check verifies the outcome outside the timed section; every string
	// returned is one failed operation.
	check(e *env, o *outcome) []string
	// layers adds the workload's own per-layer metrics in the traced pass.
	layers(e *env, traced *outcome, runS float64, out map[string]float64, notes map[string]string)
	close()
}

// phase is one timed part of a storage iteration.
type phase struct {
	seconds float64
	bytes   float64
}

// mrRun is the result of one simulation or one MapReduce engine run.
type mrRun struct {
	label    string
	sched    string
	makespan float64
	moved    float64 // BytesMoved + WastedBytes
	jobs     []rt.JobResult
	repair   *rt.RepairStats
	failAt   float64
	outputs  []map[string]string
	hostS    float64
}

// outcome is what one timed iteration produced.
type outcome struct {
	ops        int // operations attempted (sims, jobs, block operations)
	tasks      int // task completions, or block operations for storage
	inputBytes float64
	runs       []mrRun
	phases     map[string]phase
	digest     string
}

// sample is the host-side measurement of one iteration. SetupS and RunS
// are the wall times divided by the host's pace factor over the section
// (see pace.go); the wall times and the factors are kept beside them.
type sample struct {
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	RunWallS   float64 `json:"run_wall_s"`
	SetupPace  float64 `json:"setup_pace"`
	RunPace    float64 `json:"run_pace"`
	AllocGB    float64 `json:"alloc_gb"`
	// PeakRSSMB is VmHWM as the timed section ended, before the output
	// check (which may run a reference engine of its own) could raise it.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// WorkloadReport is one workload's part of the report file.
type WorkloadReport struct {
	Name       string `json:"name"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Traced     bool   `json:"traced"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Iterations int    `json:"iterations"`
	// Passes is 2 in the report -aa writes: the first pass's numbers, each
	// host metric's Spread set from the second. Only such a report tells
	// -compare how far a host metric moves between runs of the same code.
	Passes    int              `json:"passes"`
	Samples   []sample         `json:"samples"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Digest    string           `json:"digest"`
	Metrics   map[string]Value `json:"metrics"`
	Layers    map[string]Value `json:"layers,omitempty"`
	Spans     []Span           `json:"spans,omitempty"`
}

func (r *WorkloadReport) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// iterationsFor turns the measuring budget into an iteration count.
func iterationsFor(w *workload, seconds float64) int {
	return max(1, int(math.Round(seconds/w.nominalS)))
}

// minSetUps is how many times a workload is set up at least, so setup_s
// rests on more than one set-up even when the budget allows a single
// timed iteration (a third would cost the driver's 136 runs two minutes).
const minSetUps = 2

// measure runs the untraced pass of one workload: iters iterations of
// {set up, run, check}, plus bare set-ups up to minSetUps.
func measure(w *workload, seed int64, tiny bool, iters int) *WorkloadReport {
	rep := newReport(w, seed, tiny, false)
	e := &env{seed: seed, tiny: tiny, pacer: newPacer()}
	defer e.pacer.close()
	var samples []sample
	var setups, setupWalls []float64
	var outcomes []*outcome
	for i := 0; i < iters; i++ {
		s, o, inst, _ := iterate(w, e, rep, false)
		if o == nil {
			break
		}
		inst.close()
		if i > 0 && o.digest != outcomes[0].digest {
			rep.fail(0, fmt.Sprintf("iteration %d: result digest %s differs from %s on identical inputs", i, o.digest, outcomes[0].digest))
		}
		outcomes = append(outcomes, o)
		samples = append(samples, s)
		setups = append(setups, s.SetupS)
		setupWalls = append(setupWalls, s.SetupWallS)
	}
	for i := len(setups); i < minSetUps && len(outcomes) > 0; i++ {
		runtime.GC()
		p0 := e.readPace()
		t0 := startWatch()
		inst, err := w.setUp(e)
		if err != nil {
			rep.fail(1, "set-up: "+err.Error())
			break
		}
		wall := t0.seconds()
		setups = append(setups, wall/paceFactor(p0, e.readPace()))
		setupWalls = append(setupWalls, wall)
		inst.close()
	}
	rep.Iterations, rep.Samples = len(samples), samples
	if len(outcomes) > 0 {
		rep.Digest = outcomes[0].digest
		fillMetrics(rep, samples, setups, setupWalls, outcomes)
	}
	return rep
}

// iterate is one {set up, run, check} cycle. It hands back the
// still-open instance (the traced pass probes it; the caller closes it)
// and, with profile set, the CPU profile of the timed section.
func iterate(w *workload, e *env, rep *WorkloadReport, profile bool) (sample, *outcome, instance, []byte) {
	runtime.GC()
	p0 := e.readPace()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := startWatch()
	root := e.spans.startRoot(w.name + ".setup")
	inst, err := w.setUp(e)
	e.spans.end(root, 0)
	if err != nil {
		rep.fail(1, "set-up: "+err.Error())
		return sample{}, nil, nil, nil
	}
	setupS := t0.seconds()
	p1 := e.readPace()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			rep.fail(1, "cpu profile: "+err.Error())
		}
	}
	root = e.spans.startRoot(w.name + ".run")
	t1 := startWatch()
	o, err := inst.run(e)
	runS := t1.seconds()
	e.spans.end(root, 0)
	if profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	peakMB := peakRSSMB()
	setupPace, runPace := paceFactor(p0, p1), paceFactor(p1, e.readPace())
	if err != nil {
		rep.fail(1, "run: "+err.Error())
		inst.close()
		return sample{}, nil, nil, nil
	}
	rep.Attempted += o.ops
	if len(o.runs) > 0 {
		o.digest = digestRuns(o.runs) // outside the timed section: job outputs run to megabytes
	}
	for _, f := range inst.check(e, o) {
		rep.fail(0, f)
	}
	return sample{
		SetupS: setupS / setupPace, SetupWallS: setupS, SetupPace: setupPace,
		RunS: runS / runPace, RunWallS: runS, RunPace: runPace,
		AllocGB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e9,
		PeakRSSMB: peakMB,
	}, o, inst, prof.Bytes()
}

func newReport(w *workload, seed int64, tiny, traced bool) *WorkloadReport {
	scale := "full"
	if tiny {
		scale = "tiny"
	}
	return &WorkloadReport{
		Name: w.name, Seed: seed, Scale: scale, Traced: traced,
		Gomaxprocs: runtime.GOMAXPROCS(0), Passes: 1,
		Metrics: make(map[string]Value),
	}
}

// fail records one failed operation. attempted is added when the
// failure is of an operation not yet counted.
func (r *WorkloadReport) fail(attempted int, why string) {
	r.Attempted += attempted
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, why)
	}
}

// fillMetrics derives every end-to-end metric the outcome defines.
// Host metrics are medians over iterations, every time among them at the
// reference pace; simulated metrics come from the first outcome (all
// iterations agree, or the digest check failed).
func fillMetrics(rep *WorkloadReport, samples []sample, setups, setupWalls []float64, outcomes []*outcome) {
	o := outcomes[0]
	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	host := func(name string, v float64) {
		m, _ := metricByName(name)
		rep.Metrics[name] = Value{Value: v, Unit: m.Unit}
	}
	paced := func(name string, v, wall float64) {
		m, _ := metricByName(name)
		rep.Metrics[name] = Value{Value: v, Unit: m.Unit, Note: fmt.Sprintf("wall %.4g s at host pace %.3f", wall, wall/v)}
	}
	runS := stats.Median(col(func(s sample) float64 { return s.RunS }))
	paced("setup_s", stats.Median(setups), stats.Median(setupWalls))
	paced("run_s", runS, stats.Median(col(func(s sample) float64 { return s.RunWallS })))
	host("tasks_per_s", float64(o.tasks)/runS)
	host("alloc_gb", stats.Median(col(func(s sample) float64 { return s.AllocGB })))
	// The high-water mark only rises, so the first iteration's reading is
	// the one no earlier output check in this process has touched.
	host("peak_rss_mb", samples[0].PeakRSSMB)
	if o.inputBytes > 0 {
		host("input_mb_per_s", o.inputBytes/1e6/runS)
	}
	for name := range o.phases {
		rates := make([]float64, len(outcomes))
		for i, oc := range outcomes {
			rates[i] = oc.phases[name].bytes / 1e6 / (oc.phases[name].seconds / samples[i].RunPace)
		}
		host(name, stats.Median(rates))
	}
	simulated(rep, o)
	pct := 0.0
	if rep.Attempted > 0 {
		pct = 100 * float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Metrics["failed_ops_pct"] = Value{Value: pct, Unit: "%", Note: fmt.Sprintf("%d of %d operations", rep.Failed, rep.Attempted)}
}

// simulated fills the virtual-clock metrics from a MapReduce outcome.
func simulated(rep *WorkloadReport, o *outcome) {
	if len(o.runs) == 0 {
		return
	}
	set := func(name string, v float64, note string) {
		m, _ := metricByName(name)
		rep.Metrics[name] = Value{Value: v, Unit: m.Unit, Note: note}
	}
	var edf, lf []mrRun
	for _, r := range o.runs {
		switch r.sched {
		case "EDF":
			edf = append(edf, r)
		case "LF":
			lf = append(lf, r)
		}
	}
	both := len(edf) > 0 && len(lf) > 0
	timed := o.runs
	if both {
		timed = edf
	}
	var makespans []float64
	for _, r := range timed {
		makespans = append(makespans, r.makespan)
	}
	set("sim_makespan_s", stats.Mean(makespans), "")
	if both {
		l, e := meanJobRuntime(lf), meanJobRuntime(edf)
		set("edf_vs_lf_reduction_pct", 100*(l-e)/l, rep.paperReference())
	}
	moved := 0.0
	var degraded []float64
	for _, r := range o.runs {
		moved += r.moved
		for j := range r.jobs {
			for _, t := range r.jobs[j].Tasks {
				if t.Class == sched.ClassDegraded {
					degraded = append(degraded, t.DegradedReadTime)
				}
			}
		}
		if r.repair != nil && r.repair.FullRedundancyAt >= 0 {
			set("heal_time_s", r.repair.FullRedundancyAt-r.failAt, "")
		}
	}
	set("net_gb_moved", moved/1e9, "")
	if strings.HasPrefix(rep.Name, "sim-") && len(degraded) > 0 {
		sort.Float64s(degraded)
		// p99 needs ten samples beyond it; below a thousand report the max.
		if n := len(degraded); n >= 1000 {
			set("degraded_read_p99_s", degraded[n*99/100], fmt.Sprintf("p99 of %d degraded reads", n))
		} else {
			set("degraded_read_p99_s", degraded[n-1], fmt.Sprintf("max of %d degraded reads (too few for p99)", n))
		}
	}
}

func meanJobRuntime(runs []mrRun) float64 {
	var xs []float64
	for _, r := range runs {
		for j := range r.jobs {
			xs = append(xs, r.jobs[j].Runtime())
		}
	}
	return stats.Mean(xs)
}

// paperReference is the paper's number to read edf_vs_lf_reduction_pct
// against.
func (r *WorkloadReport) paperReference() string {
	switch r.Name {
	case wSimPaper:
		return "paper 33.2% (Fig. 7d, single node)"
	case wMinimr:
		return "paper 16.6-28.4% (Fig. 9b)"
	}
	return ""
}

// digestRuns hashes everything a run reports on the virtual clock, bit
// for bit, so "a simulator speed-up left every simulated number alone"
// is one string comparison.
func digestRuns(runs []mrRun) string {
	h := sha256.New()
	var word [8]byte
	n := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		//lint:ignore errsink hash.Hash.Write is documented to never return an error
		h.Write(word[:])
	}
	f := func(x float64) { n(math.Float64bits(x)) }
	str := func(s string) {
		n(uint64(len(s)))
		//lint:ignore errsink hash.Hash.Write is documented to never return an error
		io.WriteString(h, s)
	}
	for _, r := range runs {
		str(r.sched)
		f(r.makespan)
		f(r.moved)
		for j := range r.jobs {
			jr := &r.jobs[j]
			f(jr.SubmitTime)
			f(jr.FirstMapLaunch)
			f(jr.MapPhaseEnd)
			f(jr.FinishTime)
			for _, t := range jr.Tasks {
				n(uint64(t.Task))
				n(uint64(t.Class))
				n(uint64(t.Node))
				f(t.LaunchTime)
				f(t.FinishTime)
				f(t.DegradedReadTime)
			}
			for _, rd := range jr.Reduces {
				n(uint64(rd.Index))
				n(uint64(rd.Node))
				f(rd.LaunchTime)
				f(rd.FinishTime)
			}
		}
		if r.repair != nil {
			n(uint64(r.repair.BlocksRepaired))
			f(r.repair.RepairBytes)
			f(r.repair.FullRedundancyAt)
		}
		for _, out := range r.outputs {
			for _, k := range sortedKeys(out) {
				str(k)
				str(out[k])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
