package mapred_test

// Job-storm tests live in an external test package so they can drive the
// simulator with workload.GenerateStorm (package workload imports mapred,
// so the in-package tests cannot import it back).

import (
	"testing"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

func stormConfig() mapred.Config {
	cfg := mapred.DefaultConfig()
	cfg.Nodes = 8
	cfg.Racks = 2
	cfg.N = 4
	cfg.K = 2
	cfg.BlockSizeBytes = 16e6
	cfg.NumBlocks = 64
	cfg.RackBps = netsim.Gbps
	return cfg
}

func stormJobs(t *testing.T, n int, slack float64) []mapred.JobSpec {
	t.Helper()
	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 4
	tpl.MapTime = mapred.Dist{Mean: 2, Std: 0.2}
	tpl.ReduceTime = mapred.Dist{Mean: 1.5, Std: 0.1}
	tpl.NumReduceTasks = 1
	tpl.ShuffleRatio = 0.1
	jobs, err := workload.GenerateStorm(workload.StormOptions{
		NumJobs: n,
		Tenants: []workload.TenantSpec{
			{Name: "alpha", Weight: 4, Share: 0.5},
			{Name: "beta", Weight: 2, Share: 0.3},
			{Name: "gamma", Weight: 1, Share: 0.2},
		},
		MeanInterArrival: 1,
		Template:         tpl,
		VaryBlocks:       4,
		DeadlineSlack:    slack,
		Seed:             17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestMidStormFailureRequeuesTenantJobs kills a node in the middle of a
// fair-share storm and checks that every re-executed task re-enters its
// own job's (and so its tenant's) queue: the storm completes, each
// requeued task is scheduled again later, and tenant metadata survives
// the failure path.
func TestMidStormFailureRequeuesTenantJobs(t *testing.T) {
	jobs := stormJobs(t, 40, 0)
	// Long maps keep tasks in flight on the doomed node at failure time.
	for i := range jobs {
		jobs[i].MapTime = mapred.Dist{Mean: 12, Std: 1}
	}
	tenantOf := map[int]string{}
	for i, j := range jobs {
		tenantOf[i] = j.Tenant
	}

	var mem trace.Memory
	cfg := stormConfig()
	cfg.Seed = 9
	cfg.Trace = &mem
	cfg.JobSched = jobsched.Config{Policy: jobsched.FairShare}
	// Node 0 launches several 12-second maps at t=0 under this seed, so
	// failing it at t=5 is guaranteed to catch tasks in flight (the
	// vacuity check below trips if a future change moves them).
	cfg.FailNodes = []topology.NodeID{0}
	cfg.FailAt = 5
	res, err := mapred.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// The storm completes despite the failure.
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("jobs = %d, want %d", len(res.Jobs), len(jobs))
	}
	for i, jr := range res.Jobs {
		if jr.FinishTime == 0 {
			t.Fatalf("job %d never finished", i)
		}
		if jr.Tenant != tenantOf[i] {
			t.Fatalf("job %d tenant = %q, want %q (metadata lost in failure path)", i, jr.Tenant, tenantOf[i])
		}
		if jr.QueueDelay < 0 {
			t.Fatalf("job %d has no queueing delay", i)
		}
	}

	// Every requeued task is rescheduled strictly later, for the same job.
	events := mem.Events()
	requeues := 0
	for i, e := range events {
		if e.Type != trace.EvTaskRequeue {
			continue
		}
		requeues++
		found := false
		for _, later := range events[i+1:] {
			if later.Type == trace.EvTaskLaunch && later.Job == e.Job && later.Task == e.Task {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("requeued task %d of job %d (tenant %s) never rescheduled",
				e.Task, e.Job, tenantOf[e.Job])
		}
	}
	if requeues == 0 {
		t.Fatal("failure requeued nothing; the test is vacuous — adjust FailAt/FailNodes")
	}
}

// TestStormPoliciesComplete runs the same storm under every policy and
// checks completion plus policy-specific invariants.
func TestStormPoliciesComplete(t *testing.T) {
	jobs := stormJobs(t, 50, 120)
	for _, policy := range []jobsched.Kind{jobsched.Fifo, jobsched.FairShare, jobsched.Quota, jobsched.Deadline} {
		cfg := stormConfig()
		cfg.Seed = 3
		cfg.JobSched = jobsched.Config{Policy: policy, QuotaSlots: 4}
		res, err := mapred.Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, jr := range res.Jobs {
			if jr.FinishTime == 0 {
				t.Fatalf("%v: job %d never finished", policy, i)
			}
		}
	}
}
