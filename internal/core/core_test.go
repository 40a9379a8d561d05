package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randdist"
	"repro/internal/workload"
)

func TestEstimatorExact(t *testing.T) {
	job := &workload.Job{ID: 1, Durations: []float64{100, 200, 300}}
	e := NewEstimator(0, 0, 1)
	if got := e.Estimate(job); got != 200 {
		t.Fatalf("exact estimate = %v, want 200", got)
	}
	e1 := NewEstimator(1, 1, 1)
	if got := e1.Estimate(job); got != 200 {
		t.Fatalf("unit-range estimate = %v, want 200", got)
	}
}

func TestEstimatorNil(t *testing.T) {
	var e *Estimator
	job := &workload.Job{ID: 1, Durations: []float64{50}}
	if got := e.Estimate(job); got != 50 {
		t.Fatalf("nil estimator should be exact, got %v", got)
	}
}

func TestEstimatorMisestimationRange(t *testing.T) {
	job := &workload.Job{ID: 1, Durations: []float64{1000}}
	e := NewEstimator(0.5, 1.5, 7)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 10000; i++ {
		v := e.Estimate(job)
		if v < 500 || v >= 1500 {
			t.Fatalf("estimate %v outside [500, 1500)", v)
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > 600 || hi < 1400 {
		t.Fatalf("mis-estimation not spanning the range: [%v, %v]", lo, hi)
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	job := &workload.Job{ID: 1, Durations: []float64{100}}
	a := NewEstimator(0.1, 1.9, 42)
	b := NewEstimator(0.1, 1.9, 42)
	for i := 0; i < 100; i++ {
		if a.Estimate(job) != b.Estimate(job) {
			t.Fatal("estimator streams diverged for equal seeds")
		}
	}
}

func TestClassifier(t *testing.T) {
	c := Classifier{Cutoff: 1129}
	if c.IsLong(1128.9) {
		t.Fatal("below cutoff should be short")
	}
	if !c.IsLong(1129) {
		t.Fatal("at cutoff should be long")
	}
	if !c.IsLong(20000) {
		t.Fatal("far above cutoff should be long")
	}
}

func TestPartitionSizing(t *testing.T) {
	p := NewPartition(15000, 0.17)
	if p.ShortOnlyNodes() != 2550 {
		t.Fatalf("short partition = %d, want 2550", p.ShortOnlyNodes())
	}
	if p.GeneralNodes() != 12450 {
		t.Fatalf("general partition = %d, want 12450", p.GeneralNodes())
	}
	if p.NumNodes() != 15000 {
		t.Fatalf("NumNodes = %d", p.NumNodes())
	}
}

func TestPartitionMembership(t *testing.T) {
	p := NewPartition(100, 0.2)
	for id := 0; id < 20; id++ {
		if p.IsGeneral(id) {
			t.Fatalf("node %d should be short-only", id)
		}
	}
	for id := 20; id < 100; id++ {
		if !p.IsGeneral(id) {
			t.Fatalf("node %d should be general", id)
		}
	}
	if got := p.GeneralID(0); got != 20 {
		t.Fatalf("GeneralID(0) = %d, want 20", got)
	}
	if got := p.GeneralID(79); got != 99 {
		t.Fatalf("GeneralID(79) = %d, want 99", got)
	}
}

func TestPartitionCeiling(t *testing.T) {
	// The reservation is ceil(fraction * nodes): any positive fraction
	// reserves at least one node, and fractional products round up.
	cases := []struct {
		nodes int
		frac  float64
		want  int
	}{
		{3, 0.34, 2},   // 1.02 rounds up
		{10, 0.01, 1},  // 0.1 rounds up
		{10, 0.25, 3},  // 2.5 rounds up
		{100, 0.2, 20}, // exact products stay exact
		{100, 0.07, 7}, // 0.07*100 is 7.0000000000000009 in float64; noise must not ceil to 8
		{15000, 0.17, 2550},
	}
	for _, c := range cases {
		if got := NewPartition(c.nodes, c.frac).ShortOnlyNodes(); got != c.want {
			t.Errorf("NewPartition(%d, %g) reserved %d, want %d", c.nodes, c.frac, got, c.want)
		}
	}
}

func TestPartitionClamping(t *testing.T) {
	// A full reservation must still leave one general node.
	p := NewPartition(10, 1.0)
	if p.GeneralNodes() < 1 {
		t.Fatalf("general partition empty: %+v", p)
	}
	// Negative and oversized fractions clamp.
	if p := NewPartition(10, -0.5); p.ShortOnlyNodes() != 0 {
		t.Fatalf("negative fraction should reserve nothing, got %d", p.ShortOnlyNodes())
	}
	if p := NewPartition(0, 0.5); p.NumNodes() != 0 {
		t.Fatalf("zero nodes mishandled: %+v", p)
	}
}

// Property: every partition splits the cluster exactly and samples stay in
// the right ranges.
func TestPartitionProperty(t *testing.T) {
	src := randdist.New(3)
	check := func(nodes uint16, fracRaw uint8) bool {
		n := int(nodes%5000) + 2
		frac := float64(fracRaw) / 255
		p := NewPartition(n, frac)
		if p.ShortOnlyNodes()+p.GeneralNodes() != n {
			return false
		}
		if p.GeneralNodes() < 1 {
			return false
		}
		for _, id := range p.SampleGeneralInto(nil, src, 10) {
			if !p.IsGeneral(id) {
				return false
			}
		}
		for _, id := range p.SampleAllInto(nil, src, 10) {
			if id < 0 || id >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNumProbes(t *testing.T) {
	if got := NumProbes(10, 2, 1000); got != 20 {
		t.Fatalf("NumProbes = %d, want 20", got)
	}
	if got := NumProbes(600, 2, 1000); got != 1000 {
		t.Fatalf("NumProbes capped = %d, want 1000", got)
	}
	if got := NumProbes(0, 2, 1000); got != 1 {
		t.Fatalf("NumProbes floor = %d, want 1", got)
	}
	if got := NumProbes(5, 2, 0); got != 0 {
		t.Fatalf("NumProbes with no candidates = %d, want 0", got)
	}
}

func TestPartitionString(t *testing.T) {
	if s := NewPartition(10, 0.2).String(); s == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestPartitionCeilingLargeProducts(t *testing.T) {
	// The noise guard must be relative: 0.07*3e8 is 21000000.000000004 in
	// float64, ~4e-9 above the intended integer.
	if got := NewPartition(300000000, 0.07).ShortOnlyNodes(); got != 21000000 {
		t.Fatalf("reserved %d, want 21000000", got)
	}
}

func TestPartitionTinyPositiveFraction(t *testing.T) {
	// The ceiling contract: any positive fraction reserves at least one
	// node, even when the noise guard clamps a near-zero product.
	if got := NewPartition(100, 1e-12).ShortOnlyNodes(); got != 1 {
		t.Fatalf("reserved %d, want 1", got)
	}
}
