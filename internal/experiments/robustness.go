package experiments

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/stats"
)

// The robustness experiment behind the paper's §4 resilience argument:
// Hawk's centralized scheduler is a single logical component, and the
// paper's answer to "what if it dies?" is that the distributed side —
// batch-sampling probes plus randomized stealing over the partitioned
// cluster — keeps short jobs flowing and the general partition busy while
// the central queue is gone. This driver scripts exactly that: kill the
// centralized scheduler mid-trace, restore it later, and compare the
// candidate policy with and without stealing over the outage window.

// OutageRow is one variant of the central-outage robustness experiment.
type OutageRow struct {
	Variant string // "hawk", "hawk w/o stealing"

	// Median general-partition utilization before and during the outage —
	// the headline comparison: stealing keeps the partition fed while
	// long-job placement is suspended.
	GeneralUtilBefore float64
	GeneralUtilOutage float64

	// Short-job p50 runtime overall vs jobs submitted during the outage.
	ShortP50       float64
	ShortP50Outage float64
	// Long-job p50 runtime overall vs during the outage (long jobs park
	// in the central backlog until recovery, so this shows the cost).
	LongP50       float64
	LongP50Outage float64

	CentralDeferred int64
	OutageSeconds   float64
	StealSuccesses  int64
}

// RobustnessOutage runs the central-scheduler-outage scenario on the
// Google trace at the paper's 15000-node operating point: the centralized
// scheduler is scripted down over the middle ~40% of the arrival window,
// for the candidate policy with stealing and with stealing disabled.
func RobustnessOutage(sc Scale) ([]OutageRow, error) {
	// The driver scripts its own outage; a CLI churn overlay must not leak
	// into the variants and muddy the comparison.
	sc.Overlay.Churn = nil
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	last := t.MakespanLowerBound()
	downAt, upAt := 0.3*last, 0.7*last
	churn := &policy.ChurnSpec{Events: []policy.ChurnEvent{
		{At: downAt, Kind: policy.ChurnCentralDown},
		{At: upAt, Kind: policy.ChurnCentralUp},
	}}
	cfgs := []policy.Config{
		{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed, Churn: churn},
		{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed, Churn: churn, DisableStealing: true},
	}
	names := []string{sc.PolicyName(), sc.PolicyName() + " w/o stealing"}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("robustness: %w", err)
	}
	rows := make([]OutageRow, 0, len(reports))
	for i, r := range reports {
		rows = append(rows, OutageRow{
			Variant:           names[i],
			GeneralUtilBefore: r.GeneralUtilization.MedianBetween(0, downAt),
			GeneralUtilOutage: r.GeneralUtilization.MedianBetween(downAt, upAt),
			ShortP50:          stats.Percentile(r.ShortRuntimes(), 50),
			ShortP50Outage:    stats.Percentile(r.OutageShortRuntimes(), 50),
			LongP50:           stats.Percentile(r.LongRuntimes(), 50),
			LongP50Outage:     stats.Percentile(r.OutageLongRuntimes(), 50),
			CentralDeferred:   r.CentralDeferred,
			OutageSeconds:     r.CentralOutageSeconds,
			StealSuccesses:    r.StealSuccesses,
		})
	}
	return rows, nil
}

// ChurnRow is one variant of the node-churn experiment: the candidate
// policy under scripted rolling node failures vs the undisturbed baseline.
type ChurnRow struct {
	Variant         string
	ShortP50        float64
	LongP50         float64
	NodeFailures    int64
	NodeRecoveries  int64
	TasksReexecuted int64
	ProbesLost      int64
	WorkLostSeconds float64
}

// RobustnessChurn runs the candidate policy through a rolling-failure
// scenario — waves of random node failures through the arrival window,
// each wave recovering before the next — against the same run on a stable
// cluster, quantifying how much re-execution and lost work the re-routing
// machinery absorbs.
func RobustnessChurn(sc Scale) ([]ChurnRow, error) {
	// The churned-vs-stable comparison defines both scenarios itself: the
	// stable baseline must stay churn-free even when the CLI sets a churn
	// overlay for the other experiments.
	sc.Overlay.Churn = nil
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	last := t.MakespanLowerBound()
	// Four waves: fail 300 random nodes (2% of the cluster), recover them
	// half a wave later.
	const waveNodes = 300
	var events []policy.ChurnEvent
	for w := 0; w < 4; w++ {
		// Each float64(...) rounds a product an addition would otherwise
		// fuse (see the randdist package comment).
		at := float64((0.15 + float64(0.2*float64(w))) * last)
		events = append(events,
			policy.ChurnEvent{At: at, Kind: policy.ChurnFail, Count: waveNodes},
			policy.ChurnEvent{At: at + float64(0.1*last), Kind: policy.ChurnRecover, Count: waveNodes})
	}
	cfgs := []policy.Config{
		{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed, Churn: &policy.ChurnSpec{Events: events}},
		{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed},
	}
	names := []string{sc.PolicyName() + " under churn", sc.PolicyName() + " stable"}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("robustness-churn: %w", err)
	}
	rows := make([]ChurnRow, 0, len(reports))
	for i, r := range reports {
		rows = append(rows, ChurnRow{
			Variant:         names[i],
			ShortP50:        stats.Percentile(r.ShortRuntimes(), 50),
			LongP50:         stats.Percentile(r.LongRuntimes(), 50),
			NodeFailures:    r.NodeFailures,
			NodeRecoveries:  r.NodeRecoveries,
			TasksReexecuted: r.TasksReexecuted,
			ProbesLost:      r.ProbesLost,
			WorkLostSeconds: r.WorkLostSeconds,
		})
	}
	return rows, nil
}

// FaultRow is one (policy, loss) point of the message-loss sweep.
type FaultRow struct {
	Policy   string
	Loss     float64
	ShortP50 float64
	ShortP99 float64
	LongP50  float64

	MessagesDropped int64
	ProbeRetries    int64
	AssignRetries   int64
}

// FaultLossSweep is the swept per-class drop probability axis: lossless
// through a heavily degraded 10% RPC plane.
var FaultLossSweep = []float64{0, 0.01, 0.02, 0.05, 0.10}

// RobustnessFaults sweeps uniform message loss from 0 to 10% across the
// probe-based, hybrid, and centralized schedulers on the Google trace at
// the paper's 15000-node operating point, reporting how short-job latency
// degrades as the timeout/retry defenses absorb the drops.
func RobustnessFaults(sc Scale) ([]FaultRow, error) {
	// The loss probability is this experiment's swept axis; a CLI fault
	// overlay must not leak into the points.
	sc.Overlay.Faults = nil
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	policies := []string{sc.PolicyName(), "sparrow", "centralized"}
	if sc.PolicyName() == "sparrow" || sc.PolicyName() == "centralized" {
		policies = []string{"hawk", "sparrow", "centralized"}
	}
	var cfgs []policy.Config
	for _, pol := range policies {
		for _, loss := range FaultLossSweep {
			cfg := policy.Config{NumNodes: nodes, Policy: pol, Seed: sc.Seed}
			if loss > 0 {
				// MaxRetries 8 keeps a full retry-chain exhaustion (p^9),
				// and the reliable send after it, out of reach even at 10%
				// loss.
				f := policy.UniformLoss(loss)
				f.MaxRetries = 8
				cfg.Faults = &f
			}
			cfgs = append(cfgs, cfg)
		}
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("robustness-faults: %w", err)
	}
	rows := make([]FaultRow, 0, len(reports))
	for i, r := range reports {
		row := FaultRow{
			Policy:        policies[i/len(FaultLossSweep)],
			Loss:          FaultLossSweep[i%len(FaultLossSweep)],
			ShortP50:      stats.Percentile(r.ShortRuntimes(), 50),
			ShortP99:      stats.Percentile(r.ShortRuntimes(), 99),
			LongP50:       stats.Percentile(r.LongRuntimes(), 50),
			ProbeRetries:  r.ProbeRetries,
			AssignRetries: r.AssignRetries,
		}
		if r.MessagesDropped != nil {
			row.MessagesDropped = r.MessagesDropped.Total()
		}
		rows = append(rows, row)
	}
	return rows, nil
}
