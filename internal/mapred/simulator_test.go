package mapred

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"degradedfirst/internal/netsim"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// smallConfig is a scaled-down cluster that keeps unit tests fast:
// 12 nodes in 3 racks, (6,4) code, 16 MB blocks, 120 blocks.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 12
	cfg.Racks = 3
	cfg.N = 6
	cfg.K = 4
	cfg.BlockSizeBytes = 16e6
	cfg.NumBlocks = 120
	cfg.RackBps = 100 * netsim.Mbps // degraded reads cost ~3-4 s, so contention matters
	return cfg
}

func smallJob() JobSpec {
	j := DefaultJob()
	j.MapTime = Dist{Mean: 5, Std: 0.5}
	j.ReduceTime = Dist{Mean: 8, Std: 1}
	j.NumReduceTasks = 6
	return j
}

func mustRun(t *testing.T, cfg Config, jobs ...JobSpec) *Result {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidationErrors(t *testing.T) {
	good := smallConfig()
	if _, err := Run(good, nil); err == nil {
		t.Fatal("no jobs must fail")
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.MapSlotsPerNode = 0 },
		func(c *Config) { c.ReduceSlotsPerNode = -1 },
		func(c *Config) { c.K = 9 },
		func(c *Config) { c.LocalGroups = 3 },          // K=4 splits into no 3 groups
		func(c *Config) { c.LocalGroups = 2 },          // (6,4) leaves no global parity
		func(c *Config) { c.N, c.LocalGroups = 8, -1 }, // a negative group count
		func(c *Config) { c.BlockSizeBytes = 0 },
		func(c *Config) { c.NumBlocks = 0 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	badJobs := []func(*JobSpec){
		func(j *JobSpec) { j.MapTime.Mean = 0 },
		func(j *JobSpec) { j.NumReduceTasks = -1 },
		func(j *JobSpec) { j.ShuffleRatio = -0.1 },
		func(j *JobSpec) { j.SubmitAt = -1 },
		func(j *JobSpec) { j.NumReduceTasks = 2; j.ReduceTime.Mean = 0 },
	}
	for i, mutate := range badJobs {
		j := smallJob()
		mutate(&j)
		if _, err := Run(smallConfig(), []JobSpec{j}); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	// Jobs are submitted in slice order: a SubmitAt that decreases is an
	// error naming both jobs.
	early, late := smallJob(), smallJob()
	early.Name, late.Name, late.SubmitAt = "early", "late", 5
	_, err := Run(smallConfig(), []JobSpec{late, early})
	if err == nil || !strings.Contains(err.Error(), `"early"`) || !strings.Contains(err.Error(), `"late"`) {
		t.Errorf("decreasing SubmitAt: error %v, want one naming both jobs", err)
	}
	// The store is built over a real code, so a code erasure cannot build
	// (n > 256) is refused before anything runs.
	wide := smallConfig()
	wide.N, wide.K = 300, 200
	_, err = Run(wide, []JobSpec{smallJob()})
	if err == nil || !strings.Contains(err.Error(), "n=300") || !strings.Contains(err.Error(), "k=200") {
		t.Errorf("(300,200) code: error %v, want one naming n and k", err)
	}
	// The tests' own pin files under testdata/: one that is missing or
	// garbled fails the test that reads it, naming the file and the
	// command that regenerates it, and never reads as a pass.
	dir := t.TempDir()
	counters := func(path string) error { _, err := readPins[corePins](path); return err }
	hashes := func(path string) error { _, err := readPins[string](path); return err }
	for _, tc := range []struct {
		file, content string // no file is written for empty content
		read          func(string) error
	}{
		{"missing_counters.json", "", counters},
		{"missing_hashes.json", "", hashes},
		{"truncated_counters.json", `{"LF": {"Engine": {"Scheduled": 52`, counters},
		{"unknown_counter.json", `{"LF": {"Engine": {"Steps": 52248}}}`, counters},
		{"numeric_hash.json", `{"half": 17066214343406141163}`, hashes},
		{"empty_hashes.json", `{}`, hashes},
	} {
		path := filepath.Join(dir, tc.file)
		if tc.content != "" {
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := tc.read(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "scripts/goldens.sh update") {
			t.Errorf("%s: error %v, want one naming the file and scripts/goldens.sh update", tc.file, err)
		}
	}
}

// TestNonFiniteSizesAreErrors: NaN passes every `<= 0` test and +Inf every
// `< 0` one; both used to reach the engine and panic mid-run. Each must be
// an error that names the field.
func TestNonFiniteSizesAreErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field  string
		mutate func(*Config, *JobSpec, float64)
	}{
		{"BlockSizeBytes", func(c *Config, _ *JobSpec, x float64) { c.BlockSizeBytes = x }},
		{"FailAt", func(c *Config, _ *JobSpec, x float64) { c.FailAt = x }},
		{"ShuffleRatio", func(_ *Config, j *JobSpec, x float64) { j.ShuffleRatio = x }},
		{"SubmitAt", func(_ *Config, j *JobSpec, x float64) { j.SubmitAt = x }},
		{"MapTime.Mean", func(_ *Config, j *JobSpec, x float64) { j.MapTime.Mean = x }},
		{"MapTime.Std", func(_ *Config, j *JobSpec, x float64) { j.MapTime.Std = x }},
		{"ReduceTime.Mean", func(_ *Config, j *JobSpec, x float64) { j.ReduceTime.Mean = x }},
		{"ReduceTime.Std", func(_ *Config, j *JobSpec, x float64) { j.ReduceTime.Std = x }},
	} {
		for _, x := range []float64{nan, inf} {
			cfg, job := smallConfig(), smallJob()
			tc.mutate(&cfg, &job, x)
			_, err := Run(cfg, []JobSpec{job})
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: error %v, want one naming the field", tc.field, x, err)
			}
		}
	}
}

func TestSchedulerKindString(t *testing.T) {
	if LF.String() != "LF" || BDF.String() != "BDF" || EDF.String() != "EDF" || SchedulerKind(9).String() == "" {
		t.Fatal("kind strings wrong")
	}
	cfg := smallConfig()
	cfg.Scheduler = SchedulerKind(9)
	if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
}

func TestMapOnlyNormalModeRuntime(t *testing.T) {
	// Map-only job, no failure: runtime should approximate F*T/(N*L),
	// the analysis formula (Section IV-B) plus heartbeat quantization.
	cfg := smallConfig()
	cfg.Failure = topology.NoFailure
	cfg.Seed = 1
	cfg.OutOfBandHeartbeats = true // avoid heartbeat quantization in the bound check
	cfg.RackBps = netsim.Gbps      // keep remote stealing cheap so the ideal bound applies
	j := smallJob()
	j.NumReduceTasks = 0
	j.ShuffleRatio = 0
	res := mustRun(t, cfg, j)
	jr := res.Jobs[0]
	ideal := float64(cfg.NumBlocks) * j.MapTime.Mean / float64(cfg.Nodes*cfg.MapSlotsPerNode)
	if jr.Runtime() < ideal*0.9 || jr.Runtime() > ideal*1.8 {
		t.Fatalf("map-only runtime %.1f not near ideal %.1f", jr.Runtime(), ideal)
	}
	if len(jr.Tasks) != cfg.NumBlocks {
		t.Fatalf("task records = %d", len(jr.Tasks))
	}
	for _, rec := range jr.Tasks {
		if rec.FinishTime <= rec.LaunchTime {
			t.Fatal("task with non-positive runtime")
		}
		if rec.Class == sched.ClassDegraded {
			t.Fatal("degraded task in normal mode")
		}
	}
	if jr.MapPhaseEnd != jr.FinishTime {
		t.Fatal("map-only job must finish with its map phase")
	}
}

func TestNormalModeAllSchedulersIdenticalRuntime(t *testing.T) {
	// Without failures the three schedulers produce identical schedules.
	var runtimes []float64
	for _, k := range []SchedulerKind{LF, BDF, EDF} {
		cfg := smallConfig()
		cfg.Failure = topology.NoFailure
		cfg.Scheduler = k
		cfg.Seed = 7
		res := mustRun(t, cfg, smallJob())
		runtimes = append(runtimes, res.Jobs[0].Runtime())
	}
	if runtimes[0] != runtimes[1] || runtimes[0] != runtimes[2] {
		t.Fatalf("normal-mode runtimes differ: %v", runtimes)
	}
}

func TestFailureModeProducesDegradedTasks(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 3
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 1 {
		t.Fatalf("failed nodes = %v", res.Failed)
	}
	jr := res.Jobs[0]
	counts := jr.CountByClass()
	deg := counts[sched.ClassDegraded]
	if deg == 0 {
		t.Fatal("no degraded tasks in failure mode")
	}
	// Roughly F/N blocks were on the failed node.
	expect := float64(cfg.NumBlocks) / float64(cfg.Nodes)
	if float64(deg) < expect*0.4 || float64(deg) > expect*2.5 {
		t.Fatalf("degraded count %d far from F/N = %.1f", deg, expect)
	}
	// Degraded tasks carry degraded-read times; normal tasks don't.
	for _, rec := range jr.Tasks {
		if rec.Class == sched.ClassDegraded && rec.DegradedReadTime <= 0 {
			t.Fatal("degraded task without degraded-read time")
		}
		if rec.Class != sched.ClassDegraded && rec.DegradedReadTime != 0 {
			t.Fatal("non-degraded task with degraded-read time")
		}
		if !topologyAlive(res.Failed, rec.Node) {
			t.Fatal("task ran on failed node")
		}
	}
	if got := len(jr.DegradedReadTimes()); got != deg {
		t.Fatalf("DegradedReadTimes len %d, want %d", got, deg)
	}
}

func topologyAlive(failed []topology.NodeID, id topology.NodeID) bool {
	for _, f := range failed {
		if f == id {
			return false
		}
	}
	return true
}

func TestEDFBeatsLFInFailureMode(t *testing.T) {
	// The headline result: EDF reduces runtime vs LF in failure mode.
	// Compare mean over a few seeds to be robust to placement variance.
	var lfSum, edfSum float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		for _, k := range []SchedulerKind{LF, EDF} {
			cfg := smallConfig()
			cfg.Scheduler = k
			cfg.Seed = 100 + seed
			res := mustRun(t, cfg, smallJob())
			if k == LF {
				lfSum += res.Jobs[0].Runtime()
			} else {
				edfSum += res.Jobs[0].Runtime()
			}
		}
	}
	if edfSum >= lfSum {
		t.Fatalf("EDF (%.1f) did not beat LF (%.1f) in failure mode", edfSum/seeds, lfSum/seeds)
	}
}

func TestEDFCutsDegradedReadTime(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 42
	cfg.Scheduler = LF
	lf := mustRun(t, cfg, smallJob())
	cfg.Scheduler = EDF
	edf := mustRun(t, cfg, smallJob())
	lfRead := lf.Jobs[0].MeanDegradedReadTime()
	edfRead := edf.Jobs[0].MeanDegradedReadTime()
	if edfRead >= lfRead {
		t.Fatalf("EDF degraded-read time %.2f not below LF %.2f", edfRead, lfRead)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduler = EDF
	cfg.Seed = 9
	a := mustRun(t, cfg, smallJob())
	b := mustRun(t, cfg, smallJob())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give identical results")
	}
	cfg.Seed = 10
	c := mustRun(t, cfg, smallJob())
	if reflect.DeepEqual(a.Jobs[0].Runtime(), c.Jobs[0].Runtime()) && reflect.DeepEqual(a.Failed, c.Failed) {
		t.Log("different seeds gave equal runtime (possible but unlikely)")
	}
}

func TestMultiJobFIFO(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 11
	j1 := smallJob()
	j1.Name = "first"
	j2 := smallJob()
	j2.Name = "second"
	j2.SubmitAt = 10
	res := mustRun(t, cfg, j1, j2)
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	a, b := res.Jobs[0], res.Jobs[1]
	if a.Name != "first" || b.Name != "second" {
		t.Fatal("job order wrong")
	}
	if b.FirstMapLaunch < a.FirstMapLaunch {
		t.Fatal("second job started mapping before first")
	}
	if res.Makespan != math.Max(a.FinishTime, b.FinishTime) {
		t.Fatal("makespan wrong")
	}
}

func TestReducePhaseSemantics(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 13
	j := smallJob()
	res := mustRun(t, cfg, j)
	jr := res.Jobs[0]
	if len(jr.Reduces) != j.NumReduceTasks {
		t.Fatalf("reduce records = %d, want %d", len(jr.Reduces), j.NumReduceTasks)
	}
	for _, r := range jr.Reduces {
		// A reduce task cannot finish before the map phase ends plus its
		// processing time (minus tolerance for the truncated normal).
		if r.FinishTime < jr.MapPhaseEnd {
			t.Fatalf("reduce finished at %.1f before map phase end %.1f", r.FinishTime, jr.MapPhaseEnd)
		}
		if !topologyAlive(res.Failed, r.Node) {
			t.Fatal("reduce ran on failed node")
		}
	}
	if jr.FinishTime < jr.MapPhaseEnd {
		t.Fatal("job finished before its map phase")
	}
	if jr.MeanReduceRuntime() <= 0 {
		t.Fatal("reduce runtime not recorded")
	}
}

func TestHeterogeneousSpeedFactors(t *testing.T) {
	cfg := smallConfig()
	cfg.Failure = topology.NoFailure
	cfg.Seed = 17
	cfg.OutOfBandHeartbeats = true
	cfg.RackBps = netsim.Gbps
	j := smallJob()
	j.NumReduceTasks = 0
	j.ShuffleRatio = 0
	fast := mustRun(t, cfg, j)
	cfg.SpeedFactors = map[topology.NodeID]float64{}
	for i := 0; i < 5; i++ {
		cfg.SpeedFactors[topology.NodeID(i)] = 2.0
	}
	slow := mustRun(t, cfg, j)
	if slow.Jobs[0].Runtime() <= fast.Jobs[0].Runtime() {
		t.Fatalf("heterogeneous cluster (%.1f) not slower than homogeneous (%.1f)",
			slow.Jobs[0].Runtime(), fast.Jobs[0].Runtime())
	}
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg.SpeedFactors = map[topology.NodeID]float64{0: f}
		if _, err := Run(cfg, []JobSpec{j}); err == nil {
			t.Fatalf("speed factor %v must fail", f)
		}
	}
}

// TestMaxSimTimeAborts: a run still going after 1e7 virtual seconds is
// stopped at the first heartbeat past that limit.
func TestMaxSimTimeAborts(t *testing.T) {
	cfg := smallConfig()
	cfg.HeartbeatInterval = 1e6
	job := smallJob()
	job.MapTime = Dist{Mean: 2e7}
	_, err := Run(cfg, []JobSpec{job})
	if err == nil || !strings.Contains(err.Error(), "exceeded the 10000000 s virtual-time limit") {
		t.Fatalf("want the 1e7 s abort, got: %v", err)
	}
}

func TestExpectedDegradedReadTime(t *testing.T) {
	cfg := DefaultConfig()
	// (R-1)/R * k * S / W = 3/4 * 15 * 128e6 / 125e6 = 11.52 s.
	want := 0.75 * 15 * 128e6 / netsim.Gbps
	if got := cfg.ExpectedDegradedReadTime(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExpectedDegradedReadTime = %v, want %v", got, want)
	}
	cfg.RackBps = 0
	if cfg.ExpectedDegradedReadTime() != 0 {
		t.Fatal("zero bandwidth must return 0")
	}
}

// TestPrepareDescribesEDFEstimates: the runtime gets EDF's threshold as
// ExpectedDegradedReadTime states it, and a map-time estimate that is the
// mean over the run's jobs, not job 0's alone.
func TestPrepareDescribesEDFEstimates(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduler = EDF
	fast, slow := smallJob(), smallJob()
	fast.MapTime.Mean, slow.MapTime.Mean = 2, 6
	r, err := prepare(context.Background(), cfg, []JobSpec{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.ExpectedDegradedReadTime(); want <= 0 || r.params.DegradedReadTime != want {
		t.Errorf("threshold handed to the runtime = %v, want ExpectedDegradedReadTime %v", r.params.DegradedReadTime, want)
	}
	if r.params.MapTime != 4 {
		t.Errorf("map time handed to the runtime = %v, want 4, the mean of 2 and 6", r.params.MapTime)
	}
	if _, err := runtime.Run(r.params, r.backend, r.jobs); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfBandHeartbeats(t *testing.T) {
	// OOB heartbeats can only speed things up (slots refill immediately).
	cfg := smallConfig()
	cfg.Failure = topology.NoFailure
	cfg.Seed = 23
	base := mustRun(t, cfg, smallJob())
	cfg.OutOfBandHeartbeats = true
	oob := mustRun(t, cfg, smallJob())
	if oob.Jobs[0].Runtime() > base.Jobs[0].Runtime()+1e-9 {
		t.Fatalf("OOB heartbeats slowed the job: %.2f vs %.2f",
			oob.Jobs[0].Runtime(), base.Jobs[0].Runtime())
	}
}

func TestResultAggregates(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 29
	res := mustRun(t, cfg, smallJob())
	jr := res.Jobs[0]
	if jr.MeanNormalMapRuntime() <= 0 || jr.MeanDegradedRuntime() <= 0 {
		t.Fatal("mean runtimes not recorded")
	}
	if jr.RemoteTasks() != jr.CountByClass()[sched.ClassRemote] {
		t.Fatal("RemoteTasks inconsistent")
	}
	if res.BytesMoved <= 0 {
		t.Fatal("no bytes moved despite remote/degraded/shuffle traffic")
	}
	// Degraded tasks should have longer mean runtime than normal ones
	// (they pay for the degraded read).
	if jr.MeanDegradedRuntime() <= jr.MeanNormalMapRuntime() {
		t.Fatalf("degraded mean %.2f not above normal mean %.2f",
			jr.MeanDegradedRuntime(), jr.MeanNormalMapRuntime())
	}
}

func TestHoldModeRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.NetMode = netsim.ExclusiveHold
	cfg.Seed = 31
	res := mustRun(t, cfg, smallJob())
	if res.Jobs[0].Runtime() <= 0 {
		t.Fatal("hold-mode run produced no runtime")
	}
}

func TestLocalGroupsShortenDegradedReads(t *testing.T) {
	// An LRC's local-group reads (2 blocks) must shorten degraded reads
	// against Reed-Solomon of the same width (k = 4), under identical
	// placement and failure.
	base := smallConfig()
	base.N = 7
	base.Seed = 37
	base.Scheduler = LF
	full := mustRun(t, base, smallJob())
	lrc := base
	lrc.LocalGroups = 2 // LRC(4,2,1)
	cheap := mustRun(t, lrc, smallJob())
	if cheap.Jobs[0].MeanDegradedReadTime() >= full.Jobs[0].MeanDegradedReadTime() {
		t.Fatalf("LRC(4,2,1) read %.2f not below RS(7,4) read %.2f",
			cheap.Jobs[0].MeanDegradedReadTime(), full.Jobs[0].MeanDegradedReadTime())
	}
}

func TestDelaySchedulerRunsInSimulator(t *testing.T) {
	cfg := smallConfig()
	cfg.Scheduler = sched.KindDelayLF
	cfg.Seed = 41
	res := mustRun(t, cfg, smallJob())
	if res.Scheduler != "DelayLF" {
		t.Fatalf("scheduler = %s", res.Scheduler)
	}
	if res.Jobs[0].Runtime() <= 0 {
		t.Fatal("no runtime")
	}
	// Delay scheduling must not increase remote tasks relative to LF.
	cfg.Scheduler = LF
	lf := mustRun(t, cfg, smallJob())
	if res.Jobs[0].RemoteTasks() > lf.Jobs[0].RemoteTasks() {
		t.Fatalf("DelayLF remote tasks %d exceed LF's %d",
			res.Jobs[0].RemoteTasks(), lf.Jobs[0].RemoteTasks())
	}
}

func TestDoubleNodeFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Failure = topology.DoubleNodeFailure
	cfg.Seed = 43
	cfg.Scheduler = EDF
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 2 {
		t.Fatalf("failed = %v", res.Failed)
	}
	deg := res.Jobs[0].CountByClass()[sched.ClassDegraded]
	if deg == 0 {
		t.Fatal("no degraded tasks under double failure")
	}
	for _, rec := range res.Jobs[0].Tasks {
		if !topologyAlive(res.Failed, rec.Node) {
			t.Fatal("task placed on failed node")
		}
	}
}

func TestExplicitFailNodes(t *testing.T) {
	cfg := smallConfig()
	cfg.FailNodes = []topology.NodeID{2, 7}
	cfg.Seed = 47
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 2 || res.Failed[0] != 2 || res.Failed[1] != 7 {
		t.Fatalf("failed = %v", res.Failed)
	}
	cfg.FailNodes = []topology.NodeID{99}
	if _, err := Run(cfg, []JobSpec{smallJob()}); err == nil {
		t.Fatal("out-of-range FailNodes must error")
	}
}

func TestRackFailureRuns(t *testing.T) {
	// With (6,4) over 3 racks a whole rack can fail and stripes still have
	// >= k=4 survivors (at most 2 blocks per rack per stripe).
	cfg := smallConfig()
	cfg.Failure = topology.RackFailure
	cfg.Seed = 53
	cfg.Scheduler = EDF
	res := mustRun(t, cfg, smallJob())
	if len(res.Failed) != 4 {
		t.Fatalf("rack failure should kill 4 nodes, got %v", res.Failed)
	}
	if res.Jobs[0].CountByClass()[sched.ClassDegraded] == 0 {
		t.Fatal("no degraded tasks under rack failure")
	}
}

func TestBytesMovedScalesWithShuffle(t *testing.T) {
	cfg := smallConfig()
	cfg.Failure = topology.NoFailure
	cfg.Seed = 59
	lean := smallJob()
	lean.ShuffleRatio = 0.01
	fat := smallJob()
	fat.ShuffleRatio = 0.30
	a := mustRun(t, cfg, lean)
	b := mustRun(t, cfg, fat)
	if b.BytesMoved <= a.BytesMoved {
		t.Fatalf("30%% shuffle (%.0f) should move more bytes than 1%% (%.0f)",
			b.BytesMoved, a.BytesMoved)
	}
}
