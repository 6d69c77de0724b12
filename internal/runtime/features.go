package runtime

import (
	"errors"
	"fmt"
	"math"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/topology"
)

// Features are the settings the master loop and its input planner (the
// Healer) consume, as opposed to the ones that build an engine's cluster,
// network or store. Params, mapred.Config and minimr.Options embed it, so
// each setting is declared here once, reaches the loop without being
// copied, and is defaulted and rejected by Validate alone. The zero value
// is the paper's master: FIFO jobs, no hedging, no healer, random degraded
// sources, 3 s heartbeats.
type Features struct {
	// JobSched selects the job-level scheduling policy (which jobs may
	// take slots, above the task-placement Scheduler). The zero value is
	// the FIFO queue.
	JobSched jobsched.Config
	// Hedge configures redundant degraded-read fan-ins (k+Δ races and
	// deadline hedging). The zero value disables hedging.
	Hedge HedgePolicy
	// Repair configures the background healer: it scans for lost blocks
	// after node failures and rebuilds them over the links foreground
	// jobs use. The zero value disables it. A RateFraction throttle with
	// no LinkBps is taken against the node NIC, falling back to the rack
	// link (see Validate).
	Repair repair.Config
	// SourceStrategy picks which survivors a degraded read downloads
	// (0 = RandomK, the paper's random k of n−1).
	SourceStrategy dfs.SelectionStrategy

	// HeartbeatInterval is the slaves' heartbeat period in virtual
	// seconds (0 = 3 s).
	HeartbeatInterval float64
	// OutOfBandHeartbeats triggers an immediate heartbeat from a slave
	// whenever one of its tasks completes (Hadoop's optional
	// mapreduce.tasktracker.outofband.heartbeat). Off in the paper.
	OutOfBandHeartbeats bool
	// MaxSimTime aborts a run exceeding this virtual time, a safety net
	// against scheduling bugs (0 = 1e7 s).
	MaxSimTime float64

	// TraceFlowRates additionally emits an EvFlowRate event whenever a
	// flow's allocated bandwidth changes. Off by default: a fluid-mode
	// recomputation can reallocate every active flow, so this multiplies
	// trace volume.
	TraceFlowRates bool
}

// ErrBadHeartbeat rejects a negative or NaN HeartbeatInterval (zero
// selects the 3 s default).
var ErrBadHeartbeat = errors.New("heartbeat interval must be positive")

// Validate applies every default in place and rejects unusable values.
// Every feature is byte-identical to its absence when left zero (pinned
// by the seed-golden tests), so only set fields are checked. net and spec
// describe the fabric the run uses (spec may be nil for a two-level
// cluster without per-tier capacities); they resolve the link a
// fractional repair throttle refers to. Validate is idempotent: engines
// call it on their options and Run calls it again on what it is handed.
func (f *Features) Validate(net netsim.Config, spec *topology.Spec) error {
	if f.HeartbeatInterval == 0 {
		f.HeartbeatInterval = 3
	}
	if f.HeartbeatInterval < 0 || math.IsNaN(f.HeartbeatInterval) {
		return fmt.Errorf("%w, got %v", ErrBadHeartbeat, f.HeartbeatInterval)
	}
	if !(f.MaxSimTime > 0) {
		f.MaxSimTime = 1e7
	}
	if f.SourceStrategy == 0 {
		f.SourceStrategy = dfs.RandomK
	}
	if err := f.JobSched.Validate(); err != nil {
		return err
	}
	if err := f.Hedge.Validate(); err != nil {
		return err
	}
	if err := f.Repair.Validate(); err != nil {
		return err
	}
	if f.Repair.Active() && f.Repair.RateBps == 0 && f.Repair.LinkBps == 0 {
		// The reference link is a node's access link: the NIC where one is
		// modelled, else the rack (leaf) link, each as the network config
		// overrides the fabric spec.
		nodeBps, rackBps := net.NodeBps, net.RackBps
		if spec != nil && nodeBps == 0 {
			nodeBps = spec.NodeBps
		}
		if spec != nil && rackBps == 0 {
			rackBps = spec.Tiers[0].LinkBps
		}
		f.Repair.LinkBps = nodeBps
		if nodeBps == 0 {
			f.Repair.LinkBps = rackBps
		}
		if f.Repair.RateFraction > 0 && f.Repair.LinkBps == 0 {
			return fmt.Errorf("repair: rate fraction %v needs a finite node or rack bandwidth, or an explicit LinkBps",
				f.Repair.RateFraction)
		}
	}
	return nil
}
