package policy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func newTestPartition(t *testing.T, nodes int, frac float64) core.Partition {
	t.Helper()
	return core.NewPartition(nodes, frac)
}

func scenarioTrace() *workload.Trace {
	return workload.Generate(workload.Google(), workload.GenConfig{
		NumJobs: 20, MeanInterArrival: 5, Seed: 1,
	})
}

func TestNormalizeValidatesChurn(t *testing.T) {
	tr := scenarioTrace()
	bad := []ChurnSpec{
		{Events: []ChurnEvent{{At: -1, Kind: ChurnFail, Node: 0}}},
		{Events: []ChurnEvent{{At: 0, Kind: "explode", Node: 0}}},
		{Events: []ChurnEvent{{At: 0, Kind: ChurnFail, Node: 100}}},
		{Events: []ChurnEvent{{At: 0, Kind: ChurnFail, Node: -1}}},
		{Events: []ChurnEvent{{At: 0, Kind: ChurnRecover, Count: -2}}},
		{Events: []ChurnEvent{{At: 0, Kind: ChurnFail, Count: 500}}},
	}
	for i, spec := range bad {
		s := spec
		cfg := Config{Policy: "hawk", NumNodes: 100, Churn: &s}
		if _, err := cfg.Normalize(tr); err == nil {
			t.Errorf("bad churn spec %d accepted", i)
		}
	}
	good := Config{Policy: "hawk", NumNodes: 100, Churn: &ChurnSpec{Events: []ChurnEvent{
		{At: 10, Kind: ChurnFail, Node: 99},
		{At: 20, Kind: ChurnFail, Count: 5},
		{At: 30, Kind: ChurnCentralDown},
		{At: 40, Kind: ChurnCentralUp},
		{At: 50, Kind: ChurnRecover, Count: 6},
	}}}
	if _, err := good.Normalize(tr); err != nil {
		t.Fatalf("valid churn spec rejected: %v", err)
	}
}

func TestNormalizeValidatesHeterogeneity(t *testing.T) {
	tr := scenarioTrace()
	bad := []Heterogeneity{
		{Classes: []SpeedClass{{Fraction: -0.1, Speed: 1}}},
		{Classes: []SpeedClass{{Fraction: 0.5, Speed: 0}}},
		{Classes: []SpeedClass{{Fraction: 0.5, Speed: -2}}},
		{Classes: []SpeedClass{{Fraction: 0.7, Speed: 1}, {Fraction: 0.7, Speed: 0.5}}},
	}
	for i, spec := range bad {
		h := spec
		cfg := Config{Policy: "hawk", NumNodes: 100, Heterogeneity: &h}
		if _, err := cfg.Normalize(tr); err == nil {
			t.Errorf("bad heterogeneity spec %d accepted", i)
		}
	}
	good := Config{Policy: "hawk", NumNodes: 100, Heterogeneity: &Heterogeneity{
		Classes: []SpeedClass{{Fraction: 0.3, Speed: 0.5}, {Fraction: 0.2, Speed: 2}},
	}}
	if _, err := good.Normalize(tr); err != nil {
		t.Fatalf("valid heterogeneity rejected: %v", err)
	}
}

func TestMaxConcurrentFailures(t *testing.T) {
	cases := []struct {
		spec *ChurnSpec
		want int
	}{
		{nil, 0},
		{&ChurnSpec{}, 0},
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 1, Kind: ChurnFail, Count: 5},
			{At: 2, Kind: ChurnRecover, Count: 5},
			{At: 3, Kind: ChurnFail, Count: 3},
		}}, 5},
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 1, Kind: ChurnFail, Count: 5},
			{At: 2, Kind: ChurnFail, Node: 7}, // explicit node counts 1
			{At: 3, Kind: ChurnRecover, Count: 2},
			{At: 4, Kind: ChurnFail, Count: 4},
		}}, 8},
		// Events listed out of time order still evaluate chronologically.
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 10, Kind: ChurnFail, Count: 2},
			{At: 1, Kind: ChurnFail, Count: 9},
			{At: 5, Kind: ChurnRecover, Count: 9},
		}}, 9},
		// Central outages do not consume nodes.
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 1, Kind: ChurnCentralDown},
			{At: 2, Kind: ChurnCentralUp},
		}}, 0},
		// Recovering a node that is alive revives nothing: ten explicit
		// failures, a recover of live node 50 and one more failure leave
		// eleven dead.
		{&ChurnSpec{Events: append(explicitFails(0.1, 0, 10),
			ChurnEvent{At: 0.2, Kind: ChurnRecover, Node: 50},
			ChurnEvent{At: 0.3, Kind: ChurnFail, Node: 10},
		)}, 11},
		// Recovering an explicitly failed node does revive it, once.
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 1, Kind: ChurnFail, Node: 3},
			{At: 2, Kind: ChurnFail, Node: 3}, // already dead: no change
			{At: 3, Kind: ChurnRecover, Node: 3},
			{At: 4, Kind: ChurnRecover, Node: 3}, // already alive: no change
			{At: 5, Kind: ChurnFail, Node: 4},
		}}, 1},
		// A Count recover may pick any dead node, so it does not leave node 3
		// certainly dead for the explicit recover after it.
		{&ChurnSpec{Events: []ChurnEvent{
			{At: 1, Kind: ChurnFail, Node: 3},
			{At: 2, Kind: ChurnFail, Count: 4},
			{At: 3, Kind: ChurnRecover, Count: 2},
			{At: 4, Kind: ChurnRecover, Node: 3},
			{At: 5, Kind: ChurnFail, Count: 2},
		}}, 5},
	}
	for i, c := range cases {
		if got := c.spec.MaxConcurrentFailures(); got != c.want {
			t.Errorf("case %d: MaxConcurrentFailures = %d, want %d", i, got, c.want)
		}
	}
}

// explicitFails returns fail events at time at for nodes [from, to).
func explicitFails(at float64, from, to int) []ChurnEvent {
	var evs []ChurnEvent
	for id := from; id < to; id++ {
		evs = append(evs, ChurnEvent{At: at, Kind: ChurnFail, Node: id})
	}
	return evs
}

func TestHeterogeneityFactors(t *testing.T) {
	h := &Heterogeneity{Classes: []SpeedClass{{Fraction: 0.5, Speed: 0.5}}}
	a := h.Factors(1000, 42)
	b := h.Factors(1000, 42)
	if len(a) != 1000 {
		t.Fatalf("Factors returned %d entries", len(a))
	}
	slow := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Factors not deterministic per seed")
		}
		switch a[i] {
		case 0.5:
			slow++
		case 1:
		default:
			t.Fatalf("unexpected speed %g", a[i])
		}
	}
	if slow < 400 || slow > 600 {
		t.Errorf("slow fraction %d/1000 far from the configured 0.5", slow)
	}
	if c := h.Factors(1000, 43); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] && a[3] == c[3] &&
		a[4] == c[4] && a[5] == c[5] && a[6] == c[6] && a[7] == c[7] {
		t.Error("different seeds produced suspiciously identical assignments")
	}
	// Uniform specs materialize nothing.
	if (&Heterogeneity{Classes: []SpeedClass{{Fraction: 1, Speed: 1}}}).Factors(100, 1) != nil {
		t.Error("uniform spec must return nil factors")
	}
	var nilH *Heterogeneity
	if nilH.Factors(100, 1) != nil {
		t.Error("nil spec must return nil factors")
	}
}

func TestPoolContains(t *testing.T) {
	part := newTestPartition(t, 100, 0.2)
	cases := []struct {
		pool Pool
		id   int
		want bool
	}{
		{PoolAll, 0, true}, {PoolAll, 99, true}, {PoolAll, 100, false}, {PoolAll, -1, false},
		{PoolShort, 19, true}, {PoolShort, 20, false},
		{PoolGeneral, 19, false}, {PoolGeneral, 20, true},
		{PoolNone, 5, false},
	}
	for _, c := range cases {
		if got := c.pool.Contains(part, c.id); got != c.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", c.pool, c.id, got, c.want)
		}
	}
}
