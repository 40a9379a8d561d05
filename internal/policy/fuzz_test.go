package policy

import (
	"math"
	"testing"
)

// FuzzFaultSpecNormalize exercises FaultSpec validation with arbitrary
// numeric inputs: it must never panic, must reject NaN / negative /
// out-of-range probabilities and factors, and any spec it accepts must
// normalize idempotently (engines call Normalize once; a second pass must
// be a fixed point).
func FuzzFaultSpecNormalize(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 1.0, 0.0)
	f.Add(0.1, 0.2, 0.3, 0.4, 0.5, 0.001, 5, 10.0, 4.0, 95.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 30, 0.0, 1.0, 100.0)
	f.Add(math.NaN(), 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 1.0, 0.0)
	f.Add(0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0, 0.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, math.Inf(1), 0, 0.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1, 5.0, 0.5, 200.0)
	f.Fuzz(func(t *testing.T, probeLoss, replyLoss, stealLoss, assignLoss, commitLoss,
		jitter float64, retries int, stragAt, stragFactor, pct float64) {
		spec := FaultSpec{
			ProbeLoss:  probeLoss,
			ReplyLoss:  replyLoss,
			StealLoss:  stealLoss,
			AssignLoss: assignLoss,
			CommitLoss: commitLoss,
			Jitter:     jitter,
			MaxRetries: retries,
			Stragglers: []StragglerEvent{
				{At: stragAt, Count: 1, Factor: stragFactor},
			},
			Speculate:           true,
			SpeculatePercentile: pct,
		}
		const nodes = 100
		norm, err := spec.normalize(nodes)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"ProbeLoss":  norm.ProbeLoss,
			"ReplyLoss":  norm.ReplyLoss,
			"StealLoss":  norm.StealLoss,
			"AssignLoss": norm.AssignLoss,
			"CommitLoss": norm.CommitLoss,
		} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("accepted spec has %s = %g outside [0, 1]", name, p)
			}
		}
		if math.IsNaN(norm.Jitter) || norm.Jitter < 0 || math.IsInf(norm.Jitter, 0) {
			t.Fatalf("accepted spec has Jitter = %g", norm.Jitter)
		}
		if norm.MaxRetries < 1 || norm.MaxRetries > MaxFaultRetries {
			t.Fatalf("accepted spec has MaxRetries = %d outside [1, %d]", norm.MaxRetries, MaxFaultRetries)
		}
		if !(norm.SpeculatePercentile > 0) || norm.SpeculatePercentile > 100 {
			t.Fatalf("accepted spec has SpeculatePercentile = %g outside (0, 100]", norm.SpeculatePercentile)
		}
		for i, ev := range norm.Stragglers {
			if !(ev.Factor >= 1) || math.IsInf(ev.Factor, 0) {
				t.Fatalf("accepted straggler %d has Factor = %g", i, ev.Factor)
			}
			if !(ev.At >= 0) || math.IsInf(ev.At, 0) {
				t.Fatalf("accepted straggler %d has At = %g", i, ev.At)
			}
		}
		again, err := norm.normalize(nodes)
		if err != nil {
			t.Fatalf("normalized spec fails re-normalization: %v", err)
		}
		if again.MaxRetries != norm.MaxRetries || again.SpeculatePercentile != norm.SpeculatePercentile {
			t.Fatalf("normalize is not idempotent: %+v != %+v", again, norm)
		}
	})
}
