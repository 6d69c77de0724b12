package main

import (
	"fmt"
	"math"
	"runtime"

	"degradedfirst/internal/sched"
	"degradedfirst/internal/trace"
)

// layerDef is one per-layer metric of the traced pass. Count marks the
// ones that repeat exactly for a seed (event counts and ratios of them);
// -aa -trace 1 holds those to equality. Moves names the end-to-end
// metric a change in this one should show up in.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Count  bool
	Moves  string
}

// layerMetrics lists every per-layer metric. A workload that bypasses a
// layer reports 0 for it: no events, no time.
var layerMetrics = func() []layerDef {
	ls := []layerDef{
		{"trace.events", "count", "lower", true, "-"},
		{"trace.overhead_pct", "%", "lower", false, "-"},
		{"runtime.heartbeats", "count", "lower", true, "tasks_per_s"},
		{"runtime.map_launches", "count", "lower", true, "tasks_per_s, sim_makespan_s"},
		{"runtime.reduce_launches", "count", "lower", true, "tasks_per_s"},
		{"runtime.task_requeues", "count", "lower", true, "sim_makespan_s"},
		{"runtime.hedge_launches", "count", "lower", true, "net_gb_moved"},
		{"runtime.residual_s", "s", "lower", false, "run_s"},
		{"sched.local_share", "share", "higher", true, "edf_vs_lf_reduction_pct, net_gb_moved"},
		{"sched.degraded_tasks", "count", "lower", true, "edf_vs_lf_reduction_pct"},
		{"sched.assign_us", "us", "lower", false, "run_s"},
		{"jobsched.jobs", "count", "lower", true, "run_s"},
		{"jobsched.maporder_us", "us", "lower", false, "run_s"},
		{"netsim.flows_started", "count", "lower", true, "net_gb_moved"},
		{"netsim.flows_cancelled", "count", "lower", true, "net_gb_moved"},
		{"netsim.gb", "GB", "lower", true, "net_gb_moved"},
		{"netsim.replay_s", "s", "lower", false, "run_s, tasks_per_s"},
		{"netsim.replay_share", "share", "lower", false, "run_s"},
		{"netsim.us_per_flow", "us", "lower", false, "run_s"},
		{"sim.steps", "count", "lower", true, "run_s"},
		{"sim.heap_ns_per_event", "ns", "lower", false, "run_s"},
		{"repair.stripes_queued", "count", "lower", true, "heal_time_s"},
		{"repair.blocks_repaired", "count", "higher", true, "heal_time_s"},
		{"repair.gb", "GB", "lower", true, "net_gb_moved"},
		{"gf256.muladd_mb_per_s", "MB/s", "higher", false, "degraded_read_mb_per_s, ingest_mb_per_s"},
		{"erasure.encode_mb_per_s", "MB/s", "higher", false, "ingest_mb_per_s"},
		{"erasure.reconstruct_mb_per_s", "MB/s", "higher", false, "degraded_read_mb_per_s, repair_mb_per_s"},
		{"dfs.write_s", "s", "lower", false, "ingest_mb_per_s"},
		{"dfs.degraded_read_s", "s", "lower", false, "degraded_read_mb_per_s"},
		{"dfs.repair_s", "s", "lower", false, "repair_mb_per_s"},
		{"dfs.plan_s", "s", "lower", false, "run_s"},
		{"dfs.write_self_s", "s", "lower", false, "ingest_mb_per_s"},
		{"dfs.degraded_read_self_s", "s", "lower", false, "degraded_read_mb_per_s"},
		{"dfs.repair_self_s", "s", "lower", false, "repair_mb_per_s"},
		{"workload.corpus_mb_per_s", "MB/s", "higher", false, "setup_s"},
		{"minimr.mapfn_s", "s", "lower", false, "input_mb_per_s, alloc_gb"},
		{"minimr.mapfn_share", "share", "lower", false, "input_mb_per_s"},
		{"cluster.start_s", "s", "lower", false, "setup_s"},
		{"cluster.wire_fetches", "count", "lower", true, "run_s"},
		{"cluster.wire_maps", "count", "lower", true, "run_s"},
		{"cluster.wire_shuffles", "count", "lower", true, "run_s"},
		{"cluster.wire_reduces", "count", "lower", true, "run_s"},
		{"cluster.overhead_s", "s", "lower", false, "run_s, input_mb_per_s, peak_rss_mb"},
		{"cluster.ms_per_rpc", "ms", "lower", false, "run_s"},
	}
	for _, l := range cpuLayers {
		ls = append(ls, layerDef{"cpu_share." + l, "share", "lower", false, "run_s"})
	}
	return ls
}()

// measureTraced runs the traced pass of one workload: one untraced
// iteration as the baseline, one iteration under the benchmark's sink,
// span log and a CPU profile, then the layer probes and replays.
func measureTraced(w *workload, seed int64, tiny bool) *WorkloadReport {
	rep := newReport(w, seed, tiny, true)
	pacer := newPacer()
	defer pacer.close()
	s0, o0, inst, _ := iterate(w, &env{seed: seed, tiny: tiny, pacer: pacer}, rep, false)
	if o0 == nil {
		return rep
	}
	inst.close()
	e := &env{seed: seed, tiny: tiny, pacer: pacer, sink: newCountSink(), spans: newSpanLog(fmt.Sprintf("%s/seed%d", w.name, seed))}
	s1, o1, inst, prof := iterate(w, e, rep, true)
	if o1 == nil {
		return rep
	}
	defer inst.close()
	if o1.digest != o0.digest {
		rep.fail(0, fmt.Sprintf("traced run's digest %s differs from the untraced run's %s", o1.digest, o0.digest))
	}
	rep.Iterations, rep.Samples, rep.Digest = 2, []sample{s0, s1}, o0.digest
	fillMetrics(rep, []sample{s0}, []float64{s0.SetupS, s1.SetupS}, []float64{s0.SetupWallS, s1.SetupWallS}, []*outcome{o0})

	out := make(map[string]float64, len(layerMetrics))
	notes := make(map[string]string)
	sink := e.sink
	// The loopback cluster is still open, and its connection readers emit
	// (a worker-lost event as each worker hangs up after the run) while
	// the totals are read here and the flows in layers.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	out["trace.events"] = float64(sink.events)
	out["trace.overhead_pct"] = 100 * (s1.RunS - s0.RunS) / s0.RunS
	notes["trace.overhead_pct"] = fmt.Sprintf("traced %.3fs vs untraced %.3fs at the reference pace, CPU profile included", s1.RunS, s0.RunS)
	for name, typ := range map[string]trace.Type{
		"runtime.heartbeats":      trace.EvHeartbeat,
		"runtime.map_launches":    trace.EvTaskLaunch,
		"runtime.reduce_launches": trace.EvReduceLaunch,
		"runtime.task_requeues":   trace.EvTaskRequeue,
		"runtime.hedge_launches":  trace.EvHedgeLaunch,
		"sched.degraded_tasks":    trace.EvDegradedPlan,
		"jobsched.jobs":           trace.EvJobGrant,
		"netsim.flows_started":    trace.EvTransferStart,
		"netsim.flows_cancelled":  trace.EvTransferCancel,
		"repair.stripes_queued":   trace.EvRepairQueued,
		"repair.blocks_repaired":  trace.EvRepairDone,
		"cluster.wire_fetches":    trace.EvWireFetch,
		"cluster.wire_maps":       trace.EvWireMap,
		"cluster.wire_shuffles":   trace.EvWireShuffle,
		"cluster.wire_reduces":    trace.EvWireReduce,
	} {
		out[name] = sink.count(typ)
	}
	if n := sink.count(trace.EvTaskLaunch); n > 0 {
		out["sched.local_share"] = float64(sink.launches[sched.ClassNodeLocal.String()]) / n
	}
	out["netsim.gb"] = sink.flowBytes / 1e9
	for _, r := range o1.runs {
		if r.repair != nil {
			out["repair.gb"] += r.repair.RepairBytes / 1e9
		}
	}
	if sec, bytes := e.spans.total("workload.GenerateBlockAlignedCorpus"); sec > 0 {
		out["workload.corpus_mb_per_s"] = bytes / 1e6 / sec
	}
	shares, err := cpuShares(prof)
	if err != nil {
		notes["cpu_share.other"] = "invalid: " + err.Error()
	}
	for _, l := range cpuLayers {
		out["cpu_share."+l] = shares[l]
	}
	// The probes and replays below are wall time, so shares of the run are
	// taken of its wall time too.
	inst.layers(e, o1, s0.RunWallS, out, notes)

	rep.Layers = make(map[string]Value, len(layerMetrics))
	for _, l := range layerMetrics {
		v := out[l.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, notes[l.Name] = 0, "invalid: not a finite number"
		}
		rep.Layers[l.Name] = Value{Value: v, Unit: l.Unit, Note: notes[l.Name]}
	}
	rep.Spans = e.spans.spans
	return rep
}

// layers of the simulator workloads: replay every sim's flow stream
// through a fresh engine and network, then probe the event heap, the
// task scheduler and the job scheduler at the workload's own sizes.
func (s *simInstance) layers(e *env, _ *outcome, runS float64, out map[string]float64, notes map[string]string) {
	var replayS, depth float64
	var steps uint64
	var invalid []string
	for _, p := range s.plans {
		r, err := replayFlows(p.cfg, e.sink.flows[p.label])
		if err != nil {
			invalid = append(invalid, p.label+": "+err.Error())
			continue
		}
		replayS += r.seconds
		steps += r.steps
		depth += r.meanPending / float64(len(s.plans))
	}
	out["netsim.replay_s"] = replayS
	out["netsim.replay_share"] = replayS / runS
	if n := out["netsim.flows_started"]; n > 0 {
		out["netsim.us_per_flow"] = replayS * 1e6 / n
	}
	out["sim.steps"] = float64(steps)
	out["runtime.residual_s"] = math.Max(0, runS-replayS)
	if len(invalid) > 0 {
		for _, name := range []string{"netsim.replay_s", "netsim.replay_share", "netsim.us_per_flow", "runtime.residual_s", "sim.steps"} {
			notes[name] = "invalid: " + invalid[0]
		}
	} else {
		notes["netsim.replay_s"] = fmt.Sprintf("%d sims replayed; flows finished and last finish time match the trace", len(s.plans))
	}
	out["sim.heap_ns_per_event"] = heapProbe(steps, int(depth))
	notes["sim.heap_ns_per_event"] = fmt.Sprintf("at the replay's mean pending depth %d", int(depth))

	p := s.plans[len(s.plans)-1]
	us, calls, err := schedProbe(p, e.seed)
	out["sched.assign_us"] = us
	notes["sched.assign_us"] = fmt.Sprintf("%d Assign calls, %v", calls, p.cfg.Scheduler)
	if err != nil {
		notes["sched.assign_us"] = "invalid: " + err.Error()
	}
	if len(p.jobs) > 1 {
		us, err := jobschedProbe(p)
		out["jobsched.maporder_us"] = us
		if err != nil {
			notes["jobsched.maporder_us"] = "invalid: " + err.Error()
		}
	}
}

// layers of dfs-ingest-heal: the spans around the four dfs calls, and
// their self time once the erasure kernels' share — probed at the same
// code and block size — is taken out.
func (d *dfsInstance) layers(e *env, _ *outcome, _ float64, out map[string]float64, notes map[string]string) {
	if err := codecProbes(dfsN, dfsK, dfsBlockBytes, out); err != nil {
		notes["erasure.encode_mb_per_s"] = "invalid: " + err.Error()
		return
	}
	self := func(name, span string, rate float64) {
		sec, bytes := e.spans.total(span)
		out[name+"_s"] = sec
		out[name+"_self_s"] = math.Max(0, sec-bytes/1e6/rate)
	}
	// Write encodes stripes on GOMAXPROCS workers; the probe is one.
	workers := float64(runtime.GOMAXPROCS(0))
	self("dfs.write", "dfs.Write", out["erasure.encode_mb_per_s"]*workers)
	self("dfs.degraded_read", "dfs.DegradedRead", out["erasure.reconstruct_mb_per_s"])
	self("dfs.repair", "dfs.RepairBlock", out["erasure.reconstruct_mb_per_s"])
	out["dfs.plan_s"], _ = e.spans.total("dfs.LostBlocks")
	notes["dfs.write_self_s"] = fmt.Sprintf("span minus erasure.Encode time for the same bytes on %g workers, floored at 0", workers)
}

// layers of minimr-testbed: the codec at the testbed's block size and
// the job mix's map functions called directly over every native block.
func (m *minimrInstance) layers(e *env, traced *outcome, runS float64, out map[string]float64, notes map[string]string) {
	if err := codecProbes(12, 10, m.tb.fs.BlockSize(), out); err != nil {
		notes["erasure.encode_mb_per_s"] = "invalid: " + err.Error()
	}
	sec, err := mapFnProbe(m.tb)
	if err != nil {
		notes["minimr.mapfn_s"] = "invalid: " + err.Error()
		return
	}
	out["minimr.mapfn_s"] = sec * float64(len(traced.runs))
	out["minimr.mapfn_share"] = out["minimr.mapfn_s"] / runS
	notes["minimr.mapfn_s"] = fmt.Sprintf("every job's Map over every native block, times %d engine runs", len(traced.runs))
}

// layers of cluster-loopback: what the cluster layer adds over the
// in-process engine running the identical schedule.
func (l *loopbackInstance) layers(e *env, _ *outcome, runS float64, out map[string]float64, notes map[string]string) {
	out["cluster.start_s"], _ = e.spans.total("cluster.StartLocal")
	out["cluster.overhead_s"] = math.Max(0, runS-l.refS)
	notes["cluster.overhead_s"] = fmt.Sprintf("loopback %.3fs minus in-process EDF %.3fs", runS, l.refS)
	wire := out["cluster.wire_fetches"] + out["cluster.wire_maps"] + out["cluster.wire_shuffles"] + out["cluster.wire_reduces"]
	if wire > 0 {
		out["cluster.ms_per_rpc"] = 1000 * out["cluster.overhead_s"] / wire
	}
}
