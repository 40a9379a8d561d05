package policy

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/randdist"
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

// marginNodes is the cluster FuzzMaxConcurrentFailures plays its scripts on.
const marginNodes = 24

// decodeChurn reads a fail/recover script, three bytes an event: the time
// (byte 0 >> 1, mod 16, so events tie) and the kind (byte 0's low bit: 0
// fail, 1 recover), the node (byte 1 mod marginNodes) and the count (byte 2
// mod 7; 0 names the node, 1-6 picks that many at random). It stops at 64
// events.
func decodeChurn(data []byte) []ChurnEvent {
	var evs []ChurnEvent
	for ; len(data) >= 3 && len(evs) < 64; data = data[3:] {
		ev := ChurnEvent{At: float64((data[0] >> 1) % 16), Kind: ChurnFail, Node: int(data[1]) % marginNodes, Count: int(data[2]) % 7}
		if data[0]&1 != 0 {
			ev.Kind = ChurnRecover
		}
		evs = append(evs, ev)
	}
	return evs
}

// encodeChurn is decodeChurn's inverse for events it can produce.
func encodeChurn(evs []ChurnEvent) []byte {
	var data []byte
	for _, ev := range evs {
		b0 := byte(ev.At) << 1
		if ev.Kind == ChurnRecover {
			b0 |= 1
		}
		data = append(data, b0, byte(ev.Node), byte(ev.Count))
	}
	return data
}

// FuzzMaxConcurrentFailures holds MaxConcurrentFailures to being an upper
// bound on the dead count whatever nodes the seeded Count events pick: a
// script mixing explicit and Count failures and recoveries, with tied times,
// is played on a ClusterView the way the simulator plays it (Count fails
// sample the live set, Count recovers the dead set; explicit events on a
// node already in that state do nothing), and after every event the view's
// dead count must be within the margin. The seed corpus is 400 random
// scripts of up to 30 events at ten distinct times.
func FuzzMaxConcurrentFailures(f *testing.F) {
	for seed := int64(0); seed < 400; seed++ {
		rng := randdist.New(seed)
		var evs []ChurnEvent
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			ev := ChurnEvent{At: float64(rng.Intn(10)), Kind: ChurnFail, Node: rng.Intn(marginNodes)}
			if rng.Intn(2) == 0 {
				ev.Kind = ChurnRecover
			}
			if rng.Intn(3) == 0 {
				ev.Count = 1 + rng.Intn(6)
			}
			evs = append(evs, ev)
		}
		f.Add(encodeChurn(evs), seed)
	}
	f.Fuzz(func(t *testing.T, script []byte, seed int64) {
		spec := &ChurnSpec{Events: decodeChurn(script)}
		margin := spec.MaxConcurrentFailures()
		evs := append([]ChurnEvent(nil), spec.Events...)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		rng := randdist.New(seed)
		view := core.NewClusterView(core.NewPartition(marginNodes, 0))
		view.EnableMembership()
		var ids []int
		for i, ev := range evs {
			switch {
			case ev.Kind == ChurnFail && ev.Count > 0:
				for _, id := range view.SampleAllInto(ids[:0], rng, ev.Count) {
					view.Fail(id)
				}
			case ev.Kind == ChurnFail:
				view.Fail(ev.Node)
			case ev.Count > 0:
				dead := view.AppendDead(nil)
				for _, j := range rng.SampleWithoutReplacementInto(ids[:0], len(dead), min(ev.Count, len(dead))) {
					view.Recover(dead[j])
				}
			default:
				view.Recover(ev.Node)
			}
			if dead := marginNodes - view.AliveAll(); dead > margin {
				t.Fatalf("%d nodes dead after event %d of %+v, margin %d", dead, i, evs, margin)
			}
		}
	})
}
