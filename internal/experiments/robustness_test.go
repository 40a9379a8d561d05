package experiments

import (
	"math"
	"testing"
)

// The headline robustness claim (§4 resilience): with the centralized
// scheduler scripted down mid-trace, randomized stealing keeps short jobs
// flowing. Skipped in -short mode like the other full-figure sweeps (15000
// simulated nodes).
func TestRobustnessOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("full robustness figure in -short mode")
	}
	rows, err := RobustnessOutage(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want stealing + no-stealing", len(rows))
	}
	withSteal, noSteal := rows[0], rows[1]
	if withSteal.StealSuccesses == 0 {
		t.Fatal("stealing variant recorded no successful steals")
	}
	if noSteal.StealSuccesses != 0 {
		t.Fatal("no-stealing variant stole anyway")
	}
	if withSteal.OutageSeconds <= 0 || withSteal.CentralDeferred == 0 {
		t.Fatalf("outage did not bite: %+v", withSteal)
	}
	// The resilience argument itself: short jobs submitted during the
	// outage finish faster with stealing than without. At 4000 jobs this
	// holds at every seed of 1–20 and 42; the narrowest margin is seed 12's
	// (181.3 s vs 189.5 s, −4.3 %). The general partition's utilization is
	// not part of the claim: stealing moves short tasks out of its queues,
	// and it is lower with stealing at 18 of those 20 seeds.
	if !(withSteal.ShortP50Outage < noSteal.ShortP50Outage) {
		t.Errorf("stealing short-job p50 %.1f s not below no-stealing %.1f s during the outage",
			withSteal.ShortP50Outage, noSteal.ShortP50Outage)
	}
	// With stealing the general partition stays busy through the outage:
	// no worse than a modest drop from its pre-outage level.
	if math.IsNaN(withSteal.GeneralUtilOutage) || math.IsNaN(withSteal.GeneralUtilBefore) {
		t.Fatal("general-partition utilization series empty")
	}
	if withSteal.GeneralUtilOutage < 0.5*withSteal.GeneralUtilBefore {
		t.Errorf("stealing did not sustain the general partition: %.3f during vs %.3f before",
			withSteal.GeneralUtilOutage, withSteal.GeneralUtilBefore)
	}
}

func TestRobustnessChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("full churn figure in -short mode")
	}
	rows, err := RobustnessChurn(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	churned, stable := rows[0], rows[1]
	if churned.NodeFailures != 4*300 || churned.NodeRecoveries != 4*300 {
		t.Errorf("failures/recoveries = %d/%d, want 1200/1200", churned.NodeFailures, churned.NodeRecoveries)
	}
	if churned.TasksReexecuted == 0 || churned.WorkLostSeconds <= 0 {
		t.Error("rolling failures interrupted no work")
	}
	if stable.NodeFailures != 0 || stable.TasksReexecuted != 0 {
		t.Error("stable baseline saw churn")
	}
}

// The message-loss sweep must cover every (policy, loss) point, engage the
// retry machinery at nonzero loss, and stay clean at zero.
func TestRobustnessFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault sweep in -short mode")
	}
	rows, err := RobustnessFaults(Scale{NumJobs: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(FaultLossSweep); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.ShortP50 <= 0 {
			t.Errorf("%s loss %.2f: short p50 %.2f", r.Policy, r.Loss, r.ShortP50)
		}
		if r.Loss == 0 && r.MessagesDropped != 0 {
			t.Errorf("%s lossless point dropped %d messages", r.Policy, r.MessagesDropped)
		}
		if r.Loss > 0 && r.MessagesDropped == 0 {
			t.Errorf("%s loss %.2f dropped nothing", r.Policy, r.Loss)
		}
		if r.Policy != "centralized" && r.Loss >= 0.05 && r.ProbeRetries == 0 {
			t.Errorf("%s loss %.2f: no probe retries", r.Policy, r.Loss)
		}
		if r.Policy == "centralized" && r.Loss > 0 && r.AssignRetries == 0 {
			t.Errorf("centralized loss %.2f: no assign retries", r.Loss)
		}
	}
}
