package runtime

import (
	"errors"
	"fmt"
	"math"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// Options are a run's settings, declared once for every engine: Params,
// mapred.Config and cluster.MasterOptions embed or hold them, and
// minimr.Options is this type. Validate alone defaults and rejects them.
// The zero value is the paper's master: LF tasks over FIFO jobs on an
// unlimited fluid network, no hedging, no healer, random degraded sources,
// 3 s heartbeats.
type Options struct {
	// Scheduler picks the task-placement algorithm (0 = LF).
	Scheduler sched.Kind
	// RackBps, NodeBps, CoreBps and NetMode configure the network model
	// (see netsim.Config); a zero bandwidth falls back to the fabric spec's
	// capacity for that layer, or unlimited.
	RackBps, NodeBps, CoreBps float64
	NetMode                   netsim.Mode
	// Seed drives the run's randomness. Each engine derives its streams
	// from it (placement, failure choice, task costs, degraded sources).
	Seed int64

	// JobSched selects the job-level scheduling policy (which jobs may
	// take slots, above the task-placement Scheduler). The zero value is
	// the FIFO queue.
	JobSched jobsched.Config
	// Hedge configures redundant degraded-read fan-ins (k+Δ races and
	// deadline hedging). The zero value disables hedging.
	Hedge HedgePolicy
	// Repair configures the background healer: it scans for lost blocks
	// after node failures and rebuilds them over the links foreground
	// jobs use. The zero value disables it. A RateFraction throttle is
	// taken against the node NIC, falling back to the rack link.
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

	// Trace receives the run's structured lifecycle events (nil = no
	// tracing); TraceLabel stamps each event's Run field so several runs
	// can share one sink.
	Trace      trace.Sink `json:"-"`
	TraceLabel string
}

var (
	// ErrBadHeartbeat rejects a negative, NaN or infinite
	// HeartbeatInterval (zero selects the 3 s default).
	ErrBadHeartbeat = errors.New("heartbeat interval must be positive")
	// ErrNegativeBandwidth rejects a negative or NaN RackBps, NodeBps or
	// CoreBps.
	ErrNegativeBandwidth = errors.New("bandwidth must be nonnegative")
)

// Validate applies every default in place and rejects unusable values.
// Every feature is byte-identical to its absence when left zero (pinned
// by the seed-golden tests), so only set fields are checked. spec is the
// fabric the run uses (nil for a two-level cluster without per-tier
// capacities); a fractional repair throttle must find a finite link in it
// or in the options. Validate is idempotent: engines call it on their
// options, and Run calls it again on what it is handed.
func (o *Options) Validate(spec *topology.Spec) error {
	for _, bps := range []float64{o.RackBps, o.NodeBps, o.CoreBps} {
		if bps < 0 || math.IsNaN(bps) {
			return fmt.Errorf("%w, got %v", ErrNegativeBandwidth, bps)
		}
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 3
	}
	if !(o.HeartbeatInterval > 0) || math.IsInf(o.HeartbeatInterval, 1) {
		return fmt.Errorf("%w, got %v", ErrBadHeartbeat, o.HeartbeatInterval)
	}
	if err := o.JobSched.Validate(); err != nil {
		return err
	}
	if err := o.Hedge.Validate(); err != nil {
		return err
	}
	if err := o.Repair.Validate(); err != nil {
		return err
	}
	if o.Repair.Active() && o.Repair.RateFraction > 0 && o.repairLinkBps(spec) == 0 {
		return fmt.Errorf("repair: rate fraction %v needs a finite node or rack bandwidth", o.Repair.RateFraction)
	}
	return nil
}

// repairLinkBps is the link a fractional repair throttle refers to: a
// node's access link, the NIC where one is modelled, else the rack (leaf)
// link, each as the options override the fabric spec. 0 means unlimited.
func (o *Options) repairLinkBps(spec *topology.Spec) float64 {
	nodeBps, rackBps := o.NodeBps, o.RackBps
	if spec != nil && nodeBps == 0 {
		nodeBps = spec.NodeBps
	}
	if spec != nil && rackBps == 0 {
		rackBps = spec.Tiers[0].LinkBps
	}
	if nodeBps == 0 {
		return rackBps
	}
	return nodeBps
}

// NetConfig is the network model's configuration.
func (o *Options) NetConfig() netsim.Config {
	return netsim.Config{Mode: o.NetMode, NodeBps: o.NodeBps, RackBps: o.RackBps, CoreBps: o.CoreBps}
}

// DegradedReadTime is EDF's rack-awareness threshold on cluster c: the
// analysis estimate of one degraded read (sched.ExpectedDegradedReadTime)
// of blocks of blockBytes under code, which fetches k blocks, or a locally
// repairable code's local group. A zero rackBps falls back to the fabric's
// leaf-tier capacity; 0 when that too is unlimited.
func DegradedReadTime(c *topology.Cluster, code erasure.Coder, blockBytes, rackBps float64) float64 {
	if rackBps == 0 {
		rackBps = c.Spec().Tiers[0].LinkBps
	}
	reads := code.K()
	if lr, ok := code.(erasure.LocalRepairer); ok {
		if group, ok := lr.LocalRepairGroup(0); ok {
			reads = len(group)
		}
	}
	return sched.ExpectedDegradedReadTime(c.NumRacks(), reads, blockBytes, rackBps)
}
