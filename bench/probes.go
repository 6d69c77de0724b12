package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/gf256"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/sim"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// simCluster builds the cluster mapred.Run builds for cfg.
func simCluster(cfg mapred.Config) (*topology.Cluster, error) {
	return topology.New(topology.Config{
		Nodes: cfg.Nodes, Racks: cfg.Racks, RackSizes: cfg.RackSizes, Spec: cfg.Topology,
		MapSlotsPerNode: cfg.MapSlotsPerNode, ReduceSlotsPerNode: cfg.ReduceSlotsPerNode,
	})
}

// replayStats is what replaying one sim's flow stream cost and did.
type replayStats struct {
	seconds     float64
	steps       uint64
	meanPending float64
}

// replayFlows feeds one run's recorded flow stream — starts with source,
// destination, bytes and virtual start time, same-instant starts as one
// StartFlows batch, cancels through Net.Cancel — into a fresh sim.Engine
// and netsim.Net built like the run's own, and times it. That is the
// sim+netsim share of the run with the master loop taken away.
//
// The recorded finishes pace the replay: at each one the engine is
// stepped until that flow has finished, so starts and cancels meet the
// network in the state the run's did (a hedged read cancels its losers
// at the very instant the winner finishes, and a loser often ties with
// it). The replay is valid only if it finishes exactly the flows the run
// finished and its last finish lands on the run's (1e-6 relative);
// otherwise it errs.
func replayFlows(cfg mapred.Config, ops []flowOp) (replayStats, error) {
	clu, err := simCluster(cfg)
	if err != nil {
		return replayStats{}, err
	}
	eng := sim.New()
	net, err := netsim.New(eng, clu, netsim.Config{Mode: cfg.NetMode, NodeBps: cfg.NodeBps, RackBps: cfg.RackBps, CoreBps: cfg.CoreBps})
	if err != nil {
		return replayStats{}, err
	}
	var finished, wantFinished int
	var lastFinish, wantLast float64
	net.SetHooks(netsim.Hooks{Finish: func(*netsim.Flow) { finished++; lastFinish = eng.Now() }})
	flows := make(map[int]*netsim.Flow, len(ops)/2)
	var reqs []netsim.FlowReq
	var pending, samples float64
	advance := func(t float64) {
		if t > eng.Now() {
			eng.RunUntil(t)
		}
		pending += float64(eng.Pending())
		samples++
	}

	t0 := startWatch()
	for i := 0; i < len(ops); {
		op := ops[i]
		switch op.kind {
		case trace.EvTransferEnd:
			wantFinished++
			wantLast = math.Max(wantLast, op.t)
			for f := flows[op.id]; f != nil && !f.Finished(); {
				if !eng.Step() {
					return replayStats{}, fmt.Errorf("replay ran dry before flow %d finished", op.id)
				}
			}
			i++
		case trace.EvTransferCancel:
			advance(op.t)
			if f := flows[op.id]; f != nil {
				net.Cancel(f)
			}
			i++
		default:
			j := i
			reqs = reqs[:0]
			for ; j < len(ops) && ops[j].kind == trace.EvTransferStart && sameBits(ops[j].t, op.t); j++ {
				reqs = append(reqs, netsim.FlowReq{Src: topology.NodeID(ops[j].src), Dst: topology.NodeID(ops[j].dst), Bytes: ops[j].bytes})
			}
			advance(op.t)
			for k, f := range net.StartFlows(reqs) {
				flows[ops[i+k].id] = f
			}
			i = j
		}
	}
	eng.Run()
	st := replayStats{seconds: t0.seconds(), steps: eng.Steps()}
	if samples > 0 {
		st.meanPending = pending / samples
	}
	if finished != wantFinished {
		return st, fmt.Errorf("replay finished %d flows, the run %d", finished, wantFinished)
	}
	if wantLast > 0 && math.Abs(lastFinish-wantLast) > 1e-6*wantLast {
		return st, fmt.Errorf("replay's last flow finished at %v, the run's at %v", lastFinish, wantLast)
	}
	return st, nil
}

// heapProbe times the bare event heap: schedule, sometimes cancel, and
// step no-op events at a steady pending depth, and returns nanoseconds
// per dispatched event.
func heapProbe(events uint64, depth int) float64 {
	n := int(min(events, 2_000_000))
	if n == 0 {
		return 0
	}
	eng := sim.New()
	noop := func() {}
	x := uint64(1)
	delay := func() float64 { // cheap LCG; the heap order is what matters
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>40) / (1 << 24) * 100
	}
	for i := 0; i < depth; i++ {
		eng.Schedule(delay(), noop)
	}
	t0 := startWatch()
	for i := 0; i < n; i++ {
		eng.Schedule(delay(), noop)
		if i%4 == 0 {
			eng.Cancel(eng.Schedule(delay(), noop))
		}
		eng.Step()
	}
	return t0.seconds() * 1e9 / float64(n)
}

// probeJobs places one metadata-only file per job on a cluster shaped
// like the plan's, with node 0 failed, and returns the schedulers' view
// of them: the workload's task specs as a run would see them.
func probeJobs(p simPlan, seed int64) (*topology.Cluster, []*sched.Job, error) {
	clu, err := simCluster(p.cfg)
	if err != nil {
		return nil, nil, err
	}
	code, err := erasure.New(p.cfg.N, p.cfg.K)
	if err != nil {
		return nil, nil, err
	}
	fs, err := dfs.New(clu, code, int(p.cfg.BlockSizeBytes), p.cfg.Policy, stats.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	files := make([]*dfs.File, len(p.jobs))
	for i, j := range p.jobs {
		blocks := j.NumBlocks
		if blocks == 0 {
			blocks = p.cfg.NumBlocks
		}
		if files[i], err = fs.CreateMeta(fmt.Sprintf("job%d", i), blocks); err != nil {
			return nil, nil, err
		}
	}
	clu.FailNode(0)
	jobs := make([]*sched.Job, len(files))
	for i, f := range files {
		var specs []sched.TaskSpec
		for _, b := range f.NativeBlocks() {
			holder := f.Placement.Holder(b)
			specs = append(specs, sched.TaskSpec{Block: b, Holder: holder, Lost: !clu.Alive(holder)})
		}
		jobs[i] = sched.NewJob(i, specs)
	}
	return clu, jobs, nil
}

// probeWindow is how many jobs the probes keep eligible at once: a
// storm's arrivals keep about this many jobs in their map phase.
const probeWindow = 16

// schedProbe drains the plan's task specs through the plan's scheduler:
// alive nodes heartbeat round-robin with all map slots free, three
// virtual seconds per round, until every task is assigned. It returns
// microseconds per Assign call.
func schedProbe(p simPlan, seed int64) (us float64, calls int, err error) {
	clu, jobs, err := probeJobs(p, seed)
	if err != nil {
		return 0, 0, err
	}
	scheduler, err := p.cfg.Scheduler.New(clu.NumRacks())
	if err != nil {
		return 0, 0, err
	}
	cfg := p.cfg
	env := &sched.Env{Cluster: clu, DegradedReadTime: cfg.ExpectedDegradedReadTime()}
	alive := clu.AliveNodes()
	var spent float64
	for round, next := 0, 0; next < len(jobs); round++ {
		if round > 1_000_000 {
			return 0, calls, errors.New("scheduler never drained the task specs")
		}
		for _, node := range alive {
			for next < len(jobs) && jobs[next].Done() {
				next++
			}
			env.Jobs = env.Jobs[:0]
			for i := next; i < len(jobs) && len(env.Jobs) < probeWindow; i++ {
				if !jobs[i].Done() {
					env.Jobs = append(env.Jobs, jobs[i])
				}
			}
			if len(env.Jobs) == 0 {
				break
			}
			hb := sched.Heartbeat{Now: 3 * float64(round), Node: node, FreeMapSlots: cfg.MapSlotsPerNode}
			t0 := startWatch()
			scheduler.Assign(env, hb)
			spent += t0.seconds()
			calls++
		}
	}
	return spent * 1e6 / float64(calls), calls, nil
}

// jobschedProbe registers the plan's jobs with the plan's job-level
// policy, keeps a window of them submitted, and returns microseconds per
// MapOrder call while grants move the ordering.
func jobschedProbe(p simPlan) (float64, error) {
	q, err := jobsched.New(p.cfg.JobSched)
	if err != nil {
		return 0, err
	}
	for _, j := range p.jobs {
		q.Add(jobsched.JobMeta{Tenant: j.Tenant, Weight: j.Weight, Deadline: j.Deadline}, j.NumReduceTasks)
	}
	window := min(probeWindow, len(p.jobs))
	for i := 0; i < window; i++ {
		q.Submit(i, sched.NewJob(i, make([]sched.TaskSpec, max(p.jobs[i].NumBlocks, 1))))
	}
	const calls = 20000
	var spent float64
	for i := 0; i < calls; i++ {
		t0 := startWatch()
		order := q.MapOrder()
		spent += t0.seconds()
		if len(order) == 0 {
			return 0, errors.New("MapOrder returned no eligible job")
		}
		q.MapGranted(order[0].ID)
		if i%2 == 1 {
			q.MapReleased(order[0].ID)
		}
	}
	return spent * 1e6 / calls, nil
}

// timeFor repeats f until it has run for at least a tenth of a second
// and returns seconds per call.
func timeFor(f func()) float64 {
	f() // warm
	n, t0 := 0, startWatch()
	for t0.seconds() < 0.1 {
		f()
		n++
	}
	return t0.seconds() / float64(n)
}

// codecProbes measures the GF(256) kernel and the (n,k) code's encode
// and single-block reconstruct at the workload's block size, in user MB
// per second.
func codecProbes(n, k, blockBytes int, out map[string]float64) error {
	native := make([][]byte, k)
	for i := range native {
		native[i] = randomBytes(blockBytes, uint64(i)+7)
	}
	coeffs := make([]byte, k)
	for i := range coeffs {
		coeffs[i] = byte(2 + i)
	}
	dst := make([]byte, blockBytes)
	perCall := timeFor(func() { gf256.MulAddSlices(coeffs, native, dst) })
	out["gf256.muladd_mb_per_s"] = float64(k*blockBytes) / 1e6 / perCall

	code, err := erasure.New(n, k)
	if err != nil {
		return err
	}
	var parity [][]byte
	perCall = timeFor(func() { parity, err = code.Encode(native) })
	if err != nil {
		return err
	}
	out["erasure.encode_mb_per_s"] = float64(k*blockBytes) / 1e6 / perCall

	// Lose native block 0: rebuild it from blocks 1..k-1 and one parity.
	idx := make([]int, k)
	src := make([][]byte, k)
	for i := 1; i < k; i++ {
		idx[i-1], src[i-1] = i, native[i]
	}
	idx[k-1], src[k-1] = k, parity[0]
	var rebuilt []byte
	perCall = timeFor(func() { rebuilt, err = code.ReconstructBlock(0, idx, src) })
	if err != nil || !bytes.Equal(rebuilt, native[0]) {
		return fmt.Errorf("reconstruct probe rebuilt the wrong block (%v)", err)
	}
	out["erasure.reconstruct_mb_per_s"] = float64(blockBytes) / 1e6 / perCall
	return nil
}

// mapFnProbe calls each job's exported Map over every native block of
// the testbed's input with an emit that only counts, and returns the
// host seconds of one such pass: the floor under a map phase.
func mapFnProbe(tb *testbed) (float64, error) {
	jobs, err := cluster.BuildJobs(testbedMix)
	if err != nil {
		return 0, err
	}
	f, err := tb.fs.File(testbedInput)
	if err != nil {
		return 0, err
	}
	records := 0
	emit := func(_, _ string) { records++ }
	t0 := startWatch()
	for _, job := range jobs {
		for _, b := range f.NativeBlocks() {
			block, err := tb.fs.ReadBlockUnsafe(testbedInput, b)
			if err != nil {
				return 0, err
			}
			job.Map(block, emit)
		}
	}
	if records == 0 {
		return 0, errors.New("map functions emitted nothing")
	}
	return t0.seconds(), nil
}
