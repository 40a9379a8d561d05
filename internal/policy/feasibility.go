package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// CheckFeasibility is the feasibility rule, for one job: every route the
// policy can take for it must be executable. A job routed to a probe pool
// needs tasks ≤ pool width − margin (with batch sampling one probe yields at
// most one task, so a wider job could never finish — scale traces down first
// with workload.Trace.CapTasks, as the paper does for its 100-node
// prototype); a central route always is, since every Policy with one
// declares its central pool. Width is the pool's full membership; margin is
// the scenario's worst-case concurrent failures
// (ChurnSpec.MaxConcurrentFailures), so a churn script that could shrink a
// pool below the widest job is rejected instead of deadlocking the run:
// re-routing keeps probes alive across failures, but batch sampling needs
// one live candidate per task at submission. With exact estimates the job's
// route follows long; bothClasses says mis-estimation can flip it.
//
// The simulator applies the rule to each job as it is pulled, before routing
// it; the live engine, which cannot stop a run once started, applies it to
// every job before the run (CheckTraceFeasibility).
func CheckFeasibility(id, tasks int, long, bothClasses bool, pol Policy, part core.Partition, margin int) error {
	for _, class := range [2]bool{false, true} {
		if class != long && !bothClasses {
			continue
		}
		dec := pol.Route(class)
		if dec.Action == ActionCentral {
			continue
		}
		if room := dec.Pool.width(part) - margin; tasks > room {
			if margin > 0 {
				return fmt.Errorf("policy: job %d with %d tasks exceeds the %q probe pool's %d nodes surviving worst-case churn (%d concurrent failures); shrink the scenario or cap tasks",
					id, tasks, dec.Pool, room, margin)
			}
			return fmt.Errorf("policy: job %d with %d tasks exceeds the %d-node %q probe pool; cap tasks first",
				id, tasks, room, dec.Pool)
		}
	}
	return nil
}

// CheckTraceFeasibility applies the rule to every job of a trace before an
// engine starts work, under the run's normalized configuration and the
// policy built from it.
func CheckTraceFeasibility(t *workload.Trace, cfg Config, pol Policy) error {
	part := core.NewPartition(cfg.NumNodes, pol.ShortPartitionFraction)
	margin := cfg.Churn.MaxConcurrentFailures()
	cls := core.Classifier{Cutoff: cfg.Cutoff}
	for _, j := range t.Jobs {
		long := cls.IsLong(j.AvgTaskDuration())
		if err := CheckFeasibility(j.ID, j.NumTasks(), long, !cfg.ExactEstimates(), pol, part, margin); err != nil {
			return err
		}
	}
	return nil
}
