// Package jobsched is the job-level scheduling layer of the cluster
// runtime: the policy that decides which *jobs* may take map and reduce
// slots, sitting above the per-task placement schedulers of package
// sched (LF/BDF/EDF decide *where* a chosen job's tasks run). The
// runtime notifies the Queue of every job lifecycle transition — submit,
// slot grant/release, reducer reset, finish — and asks it per heartbeat
// for the ordered set of jobs eligible for assignment; sched.Env.Jobs is
// a view the policy produces rather than state the runtime mutates in
// place.
//
// Four policies ship: Fifo serves jobs in submission order (the seed
// runtime's schedules, still pinned by the seed-golden trace tests),
// FairShare deficit-shares map-slot grants across tenants by weight,
// Quota caps each tenant's concurrent slots with overflow queueing, and
// Deadline orders jobs by earliest deadline (the paper's EDF naming
// lifted to the job layer).
package jobsched

import "fmt"

// Kind selects a job-ordering policy.
type Kind int

const (
	// Fifo serves jobs in submission order: Quota's order without caps.
	// The zero value, so callers that leave Config empty get the paper's
	// FIFO queue.
	Fifo Kind = iota
	// FairShare orders tenants by weighted map-slot grants (lowest
	// grants-per-weight first), round-robining slots across tenants.
	FairShare
	// Quota serves jobs in submission order but skips tenants at their
	// concurrent-slot cap; their jobs queue until a slot frees.
	Quota
	// Deadline orders jobs by earliest deadline (jobs without one go
	// last, in submission order).
	Deadline
)

// String returns the flag-facing policy name.
func (k Kind) String() string {
	switch k {
	case Fifo:
		return "fifo"
	case FairShare:
		return "fairshare"
	case Quota:
		return "quota"
	case Deadline:
		return "deadline"
	}
	return fmt.Sprintf("jobsched.Kind(%d)", int(k))
}

// ParseKind parses a policy name as accepted by the -jobsched flags.
// The empty string selects Fifo.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "fifo":
		return Fifo, nil
	case "fairshare":
		return FairShare, nil
	case "quota":
		return Quota, nil
	case "deadline":
		return Deadline, nil
	}
	return 0, fmt.Errorf("jobsched: unknown policy %q (want fifo, fairshare, quota or deadline)", s)
}

// MarshalText and UnmarshalText spell a policy by its name.
func (k Kind) MarshalText() ([]byte, error)        { return []byte(k.String()), nil }
func (k *Kind) UnmarshalText(b []byte) (err error) { *k, err = ParseKind(string(b)); return err }

// Config selects and parameterizes the job-level policy for one run.
// The zero value is the FIFO queue.
type Config struct {
	// Policy is the job-ordering policy.
	Policy Kind
	// QuotaSlots is every tenant's concurrent-slot cap under Quota
	// (0 = unlimited). The cap applies separately to map and
	// reduce slots and is enforced at heartbeat granularity: a single
	// heartbeat's batch of assignments to one eligible job may overshoot
	// by up to the node's free slots.
	QuotaSlots int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch c.Policy {
	case Fifo, FairShare, Quota, Deadline:
	default:
		return fmt.Errorf("jobsched: unknown policy %d", int(c.Policy))
	}
	if c.QuotaSlots < 0 {
		return fmt.Errorf("jobsched: QuotaSlots must be non-negative, got %d", c.QuotaSlots)
	}
	return nil
}
