package policy

import (
	"math"
	"slices"
	"testing"
)

// The protocol rules both engines call: the retry backoff schedule, the
// fault plane's speculation threshold, and the multi-scheduler retry budget.

// Backoff(1) is four network delays, bit for bit, and each later attempt
// doubles the one before.
func TestBackoffClosedForm(t *testing.T) {
	for _, delay := range []float64{0.0005, 0.00005, 0.1, 3} {
		c := Config{NetworkDelay: delay}
		if got, want := c.Backoff(1), 4*delay; got != want {
			t.Errorf("NetworkDelay %g: Backoff(1) = %g, want 4 network delays %g", delay, got, want)
		}
		for k := 2; k <= MaxFaultRetries+1; k++ {
			if got, want := c.Backoff(k), 2*c.Backoff(k-1); got != want {
				t.Errorf("NetworkDelay %g: Backoff(%d) = %g, want twice Backoff(%d) = %g", delay, k, got, k-1, want)
			}
		}
	}
}

func TestSpeculationThresholdRanks(t *testing.T) {
	ten := []float64{50, 10, 90, 30, 70, 20, 100, 60, 40, 80} // sorted: 10..100
	for _, c := range []struct {
		name string
		pct  float64
		durs []float64
		want float64
	}{
		{"one task", 95, []float64{7}, 7},
		{"one task, pct 0", 0, []float64{7}, 7},
		{"pct 0 clamps to the minimum", 0, ten, 10},
		{"pct 100 is the maximum", 100, ten, 100},
		{"median: rank round(10*0.5) = 5th", 50, ten, 50},
		{"p95 of ten: rank round(9.5) = 10th", 95, ten, 100},
		{"p94 of ten: rank round(9.4) = 9th", 94, ten, 90},
		{"p4 of ten: rank round(0.4) = 0 clamps to 1st", 4, ten, 10},
		{"ties", 50, []float64{3, 3, 3, 9}, 3},
	} {
		f := FaultSpec{SpeculatePercentile: c.pct}
		in := slices.Clone(c.durs)
		got, _ := f.SpeculationThreshold(in, nil)
		if got != c.want {
			t.Errorf("%s: threshold = %g, want %g", c.name, got, c.want)
		}
		if !slices.Equal(in, c.durs) {
			t.Errorf("%s: SpeculationThreshold reordered its input", c.name)
		}
	}
}

func TestSpeculationThresholdReusesScratch(t *testing.T) {
	f := FaultSpec{SpeculatePercentile: 95}
	durs := []float64{4, 2, 8, 6}
	scratch := make([]float64, 0, 16)
	if allocs := testing.AllocsPerRun(200, func() {
		_, scratch = f.SpeculationThreshold(durs, scratch)
	}); allocs != 0 {
		t.Errorf("SpeculationThreshold allocated %v times per call with a warm scratch", allocs)
	}
}

// FuzzSpeculationThreshold pins the nearest-rank closed form on arbitrary
// percentiles and duration sets: the threshold is the element at rank
// round(n*pct/100) (1-based, clamped into [1, n]) of the sorted durations.
func FuzzSpeculationThreshold(f *testing.F) {
	f.Add(95.0, []byte{1, 2, 3})
	f.Add(0.0, []byte{9})
	f.Add(100.0, []byte{5, 5, 1, 200})
	f.Fuzz(func(t *testing.T, pct float64, raw []byte) {
		if !(pct >= 0 && pct <= 100) || len(raw) == 0 {
			t.Skip() // Normalize rejects the percentile; engines never see a task-less job
		}
		durs := make([]float64, len(raw))
		for i, b := range raw {
			durs[i] = float64(b) / 4
		}
		spec := FaultSpec{SpeculatePercentile: pct}
		got, scratch := spec.SpeculationThreshold(durs, nil)
		if !slices.IsSorted(scratch) || len(scratch) != len(durs) {
			t.Fatalf("scratch is not the sorted durations: %v", scratch)
		}
		rank := int(math.Floor(float64(len(durs))*pct/100 + 0.5))
		rank = min(max(rank, 1), len(durs))
		if want := scratch[rank-1]; got != want {
			t.Fatalf("pct %g over %v: threshold = %g, want rank %d = %g", pct, scratch, got, rank, want)
		}
	})
}

// Conflict number 4 — one past the budget of 3 retries — is the first that
// forces a refresh.
func TestRetriesExhausted(t *testing.T) {
	var s SchedulerSpec
	for n := 1; n <= schedulerRetries+2; n++ {
		if got, want := s.RetriesExhausted(n), n > 3; got != want {
			t.Errorf("RetriesExhausted(%d) = %v, want %v", n, got, want)
		}
	}
}

// The offsets are part of the determinism contract (every golden report
// depends on them): pin the values, which also keeps them distinct.
func TestSeedOffsetsPinned(t *testing.T) {
	got := [...]int64{SeedEstimator, SeedSpeeds, SeedChurn, SeedReservoirs, SeedFaults}
	if got != [...]int64{1, 2, 3, 4, 5} {
		t.Fatalf("seed offsets = %v, want 1..5", got)
	}
}
