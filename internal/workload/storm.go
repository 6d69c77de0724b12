package workload

import (
	"fmt"

	"degradedfirst/internal/mapred"
	"degradedfirst/internal/stats"
)

// TenantSpec describes one tenant in a job storm.
type TenantSpec struct {
	// Name labels the tenant (job specs carry it in Tenant).
	Name string
	// Weight is the fair-share weight stamped on the tenant's jobs
	// (<= 0 means 1).
	Weight float64
	// Share is the tenant's relative probability of submitting each job
	// (<= 0 means 1). Shares need not sum to 1.
	Share float64
}

// StormOptions configures GenerateStorm: a large stream of small jobs
// from several tenants with a seeded Poisson arrival process — the
// multi-tenant "job storm" scenario that exercises the job-level
// scheduling policies.
type StormOptions struct {
	// NumJobs is the total job count across all tenants.
	NumJobs int
	// Tenants describes the submitting tenants (at least one).
	Tenants []TenantSpec
	// MeanInterArrival is the exponential inter-arrival mean in seconds
	// (0 = everything at t=0).
	MeanInterArrival float64
	// Template provides every per-job parameter except Name, SubmitAt,
	// Tenant, Weight and Deadline.
	Template mapred.JobSpec
	// VaryBlocks, when > 1, draws each job's block count uniformly from
	// [Template.NumBlocks/VaryBlocks, Template.NumBlocks].
	VaryBlocks int
	// DeadlineSlack, when positive, gives each job a deadline of
	// SubmitAt + uniform[0.5, 1.5) * DeadlineSlack (for the deadline
	// policy). Zero leaves deadlines unset.
	DeadlineSlack float64
	// Seed drives arrivals, tenant draws, block variation and slack.
	Seed int64
}

// GenerateStorm returns NumJobs job specs with Poisson arrivals, each
// assigned to a tenant drawn by share. Job i is named
// "<tenant>/j<i>"; SubmitAt is nondecreasing in slice order.
func GenerateStorm(opts StormOptions) ([]mapred.JobSpec, error) {
	if opts.NumJobs <= 0 {
		return nil, fmt.Errorf("workload: NumJobs must be positive, got %d", opts.NumJobs)
	}
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("workload: storm needs at least one tenant")
	}
	if opts.MeanInterArrival < 0 {
		return nil, fmt.Errorf("workload: negative MeanInterArrival")
	}
	if opts.DeadlineSlack < 0 {
		return nil, fmt.Errorf("workload: negative DeadlineSlack")
	}
	var totalShare float64
	for _, ts := range opts.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("workload: unnamed tenant")
		}
		totalShare += share(ts)
	}

	rng := stats.NewRNG(opts.Seed)
	jobs := make([]mapred.JobSpec, opts.NumJobs)
	at := 0.0
	for i := range jobs {
		// Weighted tenant draw by cumulative share.
		pick := rng.Float64() * totalShare
		tenant := opts.Tenants[len(opts.Tenants)-1]
		for _, ts := range opts.Tenants {
			if pick < share(ts) {
				tenant = ts
				break
			}
			pick -= share(ts)
		}

		j := opts.Template
		j.Name = fmt.Sprintf("%s/j%04d", tenant.Name, i)
		j.Tenant = tenant.Name
		j.Weight = max(tenant.Weight, 0)
		j.SubmitAt = at
		if opts.VaryBlocks > 1 && j.NumBlocks > 0 {
			lo := max(j.NumBlocks/opts.VaryBlocks, 1)
			j.NumBlocks = lo + rng.Intn(j.NumBlocks-lo+1)
		}
		if opts.DeadlineSlack > 0 {
			j.Deadline = j.SubmitAt + (0.5+rng.Float64())*opts.DeadlineSlack
		}
		jobs[i] = j
		if opts.MeanInterArrival > 0 {
			at += rng.Exponential(opts.MeanInterArrival)
		}
	}
	return jobs, nil
}

func share(ts TenantSpec) float64 {
	if ts.Share > 0 {
		return ts.Share
	}
	return 1
}
