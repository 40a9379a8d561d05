package experiments

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/stats"
)

// The multi-scheduler experiment behind §4.10: the paper's prototype runs
// ten distributed schedulers, and the natural simulator question is how the
// shared-state optimistic-concurrency model degrades as the scheduler count
// grows — more schedulers means staler snapshots per placement and more
// claim conflicts on the contested servers, paid for in retries and central
// placement latency. This driver sweeps the count from one (the exact,
// conflict-free legacy path) to one hundred and reports the conflict rate
// alongside the runtime percentiles per job class.

// SchedulerCounts is the swept scheduler-count axis: 1 is the legacy
// single-scheduler baseline, 10 is the paper's prototype operating point
// (§4.10), 100 is the stress end.
var SchedulerCounts = []int{1, 2, 5, 10, 20, 50, 100}

// sweepSnapshotInterval is the refresh cadence the sweep runs at. It is
// deliberately coarser than the spec's 5 s default: contention needs the
// staleness window to be commensurate with per-scheduler placement gaps,
// and on a fixed-load trace those gaps grow linearly with the scheduler
// count. At the default cadence everything past a handful of schedulers is
// dormant between placements, wakes with a caught-up snapshot (exactly as
// the live engine's free-running ticker would have provided), and never
// conflicts — a true but uninteresting regime. At 60 s the sweep exposes
// both regimes: conflicts climb while schedulers stay mutually active,
// peak around the paper's ten-scheduler operating point, then fall off as
// dormancy makes placements effectively fresh again.
const sweepSnapshotInterval = 60

// MultiSchedRow is one scheduler count of the sweep.
type MultiSchedRow struct {
	Schedulers int

	// ConflictRate is placement conflicts per committed central assign —
	// the headline degradation curve (0 by construction at one scheduler).
	ConflictRate float64
	// RetriesPerConflict shows how often a lost claim resolved within the
	// bounded backoff budget rather than forcing a snapshot refresh.
	RetriesPerConflict float64
	// MeanStaleness is the mean snapshot age (seconds) at commit time.
	MeanStaleness float64

	ShortP50 float64
	ShortP90 float64
	LongP50  float64
	LongP90  float64

	PlacementConflicts int64
	ConflictRetries    int64
	SnapshotRefreshes  int64
	CentralAssigns     int64
}

// SchedulerSweep runs the candidate policy on the Google trace at the
// paper's 15000-node operating point for each count in SchedulerCounts,
// fanning the runs out over the scale's worker pool.
func SchedulerSweep(sc Scale) ([]MultiSchedRow, error) {
	// The scheduler count is this experiment's swept axis; a CLI -schedulers
	// overlay must not override it (and would corrupt the n=1 baseline).
	sc.Overlay.Schedulers = nil
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	cfgs := make([]policy.Config, 0, len(SchedulerCounts))
	for _, n := range SchedulerCounts {
		cfg := policy.Config{NumNodes: nodes, Policy: sc.PolicyName(), Seed: sc.Seed}
		if n > 1 {
			cfg.Schedulers = &policy.SchedulerSpec{Count: n, SnapshotInterval: sweepSnapshotInterval}
		}
		cfgs = append(cfgs, cfg)
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("scheduler-sweep: %w", err)
	}
	rows := make([]MultiSchedRow, 0, len(reports))
	for i, r := range reports {
		row := MultiSchedRow{
			Schedulers:         SchedulerCounts[i],
			ShortP50:           stats.Percentile(r.ShortRuntimes(), 50),
			ShortP90:           stats.Percentile(r.ShortRuntimes(), 90),
			LongP50:            stats.Percentile(r.LongRuntimes(), 50),
			LongP90:            stats.Percentile(r.LongRuntimes(), 90),
			PlacementConflicts: r.PlacementConflicts,
			ConflictRetries:    r.ConflictRetries,
			SnapshotRefreshes:  r.SnapshotRefreshes,
			CentralAssigns:     r.CentralAssigns,
		}
		if r.CentralAssigns > 0 {
			row.ConflictRate = float64(r.PlacementConflicts) / float64(r.CentralAssigns)
			row.MeanStaleness = r.SnapshotStalenessSeconds / float64(r.CentralAssigns)
		}
		if r.PlacementConflicts > 0 {
			row.RetriesPerConflict = float64(r.ConflictRetries) / float64(r.PlacementConflicts)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
