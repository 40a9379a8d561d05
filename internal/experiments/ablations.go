package experiments

import (
	"fmt"

	"repro/internal/policy"
)

// The paper justifies two design choices in prose without dedicated
// figures; the drivers below turn those arguments into measurable
// ablations.

// StealPositionRow quantifies §3.6's argument for stealing the first
// consecutive group of short tasks behind a long task rather than short
// tasks from random queue positions.
type StealPositionRow struct {
	Policy string // "figure3-group" or "random-positions"
	Ratios
	// FocusJobsPerSteal approximates how many distinct jobs a steal
	// touches: entries stolen per successful steal (the paper's concern
	// is random stealing "focusing on too many jobs at the same time").
	EntriesPerSteal float64
}

// AblationStealPosition compares the two stealing choices at the paper's
// headline operating point, normalized to Sparrow so the rows are
// comparable to Figure 5.
func AblationStealPosition(sc Scale) ([]StealPositionRow, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	names := []string{"figure3-group", "random-positions"}
	cfgs := []policy.Config{
		{NumNodes: nodes, Policy: "sparrow", Seed: sc.Seed},
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed},
		{NumNodes: nodes, Policy: "hawk", Seed: sc.Seed, StealRandomPositions: true},
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("steal ablation: %w", err)
	}
	rs := reports[0]
	rows := make([]StealPositionRow, 0, len(names))
	for i, name := range names {
		r := reports[i+1]
		row := StealPositionRow{Policy: name, Ratios: ratiosFor(t, r, rs, t.Cutoff)}
		if r.StealSuccesses > 0 {
			row.EntriesPerSteal = float64(r.EntriesStolen) / float64(r.StealSuccesses)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ProbeRatioPoint is one probe-ratio setting: Sparrow (and Hawk's short
// jobs) with the given probes-per-task, normalized to ratio 2 — the value
// the Sparrow authors found best and the paper adopts (§4.1).
type ProbeRatioPoint struct {
	Ratio    int
	Policy   string
	ShortP50 float64
	ShortP90 float64
	Probes   int64 // messaging cost
}

// AblationProbeRatio sweeps the batch-sampling probe ratio for both
// schedulers at the headline operating point.
func AblationProbeRatio(sc Scale) ([]ProbeRatioPoint, error) {
	t, err := GoogleTrace(sc)
	if err != nil {
		return nil, err
	}
	const nodes = 15000
	policies := []string{"sparrow", "hawk"}
	ratios := []int{1, 2, 3, 4}
	cfgs := make([]policy.Config, 0, len(policies)*len(ratios))
	for _, pol := range policies {
		for _, ratio := range ratios {
			cfgs = append(cfgs, policy.Config{NumNodes: nodes, Policy: pol, Seed: sc.Seed, ProbeRatio: ratio})
		}
	}
	reports, err := runConfigs(t, cfgs, sc)
	if err != nil {
		return nil, fmt.Errorf("probe ratio ablation: %w", err)
	}
	points := make([]ProbeRatioPoint, 0, len(cfgs))
	for pi, pol := range policies {
		base := reports[pi*len(ratios)+1] // ratio 2, the normalization baseline
		for ri, ratio := range ratios {
			r := reports[pi*len(ratios)+ri]
			rt := ratiosFor(t, r, base, t.Cutoff)
			points = append(points, ProbeRatioPoint{
				Ratio: ratio, Policy: pol,
				ShortP50: rt.ShortP50, ShortP90: rt.ShortP90,
				Probes: r.ProbesSent,
			})
		}
	}
	return points, nil
}
