package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestReservoirExactUnderCapacity(t *testing.T) {
	// While the stream fits, the reservoir IS the stream: every value is
	// retained and percentiles match the exact computation bit for bit.
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 0, 1000)
	r := NewReservoir(1000, 42)
	for i := 0; i < 1000; i++ {
		v := rng.ExpFloat64() * 100
		vals = append(vals, v)
		r.Add(v)
	}
	if r.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", r.Count())
	}
	if !reflect.DeepEqual(r.Values(), vals) {
		t.Fatal("under capacity, retained sample is not the full stream")
	}
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		if got, want := r.Percentile(p), Percentile(vals, p); got != want {
			t.Errorf("Percentile(%v) = %v, want exact %v", p, got, want)
		}
	}
	if got, want := r.Summarize(), Summarize(vals); got != want {
		t.Errorf("Summarize = %+v, want %+v", got, want)
	}
}

func TestReservoirBoundedBeyondCapacity(t *testing.T) {
	const capacity = 64
	r := NewReservoir(capacity, 3)
	for i := 0; i < 100*capacity; i++ {
		r.Add(float64(i))
	}
	if r.Count() != 100*capacity {
		t.Fatalf("Count = %d, want %d", r.Count(), 100*capacity)
	}
	if got := len(r.Values()); got != capacity {
		t.Fatalf("retained %d values, want exactly the capacity %d", got, capacity)
	}
	// The retained sample must be drawn from the stream, without
	// duplicates of a same position (Algorithm R replaces in place).
	seen := map[float64]bool{}
	for _, v := range r.Values() {
		if v < 0 || v >= 100*capacity || v != math.Trunc(v) {
			t.Fatalf("retained value %v was never in the stream", v)
		}
		if seen[v] {
			t.Fatalf("value %v retained twice", v)
		}
		seen[v] = true
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(32, 99), NewReservoir(32, 99)
	other := NewReservoir(32, 100)
	for i := 0; i < 5000; i++ {
		v := float64(i%997) / 31
		a.Add(v)
		b.Add(v)
		other.Add(v)
	}
	if !reflect.DeepEqual(a.Values(), b.Values()) {
		t.Fatal("same (capacity, seed, stream) produced different samples")
	}
	if reflect.DeepEqual(a.Values(), other.Values()) {
		t.Fatal("different seeds produced identical samples — replacement draws are not seeded")
	}
}

func TestReservoirEstimateTracksExactPercentiles(t *testing.T) {
	// Beyond capacity the sample is uniform, so a generously sized
	// reservoir's percentile estimate must land near the exact one. The
	// tolerance is loose (a few percentile ranks of a heavy-tailed
	// stream) — this is a sanity check on the sampling, not a CI bound.
	rng := rand.New(rand.NewSource(5))
	n := 50000
	vals := make([]float64, 0, n)
	r := NewReservoir(4096, 17)
	for i := 0; i < n; i++ {
		v := rng.ExpFloat64() * 100
		vals = append(vals, v)
		r.Add(v)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, p := range []float64{50, 90} {
		got := r.Percentile(p)
		// Locate the estimate's true rank in the full stream and compare
		// ranks rather than values: rank error is what Algorithm R bounds.
		rank := float64(sort.SearchFloat64s(sorted, got)) / float64(n) * 100
		if math.Abs(rank-p) > 3 {
			t.Errorf("P%v estimate %v sits at true rank %.1f", p, got, rank)
		}
	}
}

func TestReservoirEdgeCases(t *testing.T) {
	r := NewReservoir(0, 1) // clamped to capacity 1
	if !math.IsNaN(r.Percentile(50)) {
		t.Error("empty reservoir percentile is not NaN")
	}
	r.Add(3)
	r.Add(9)
	if r.Count() != 2 || len(r.Values()) != 1 {
		t.Errorf("capacity-1 reservoir: Count=%d retained=%d, want 2 and 1", r.Count(), len(r.Values()))
	}
	vs := r.Values()
	vs[0] = -1
	if r.Values()[0] == -1 {
		t.Error("Values returned the backing array, not a copy")
	}
}

// The stats rung of the measurement ladder. Below capacity Add is an append
// into the preallocated array; above it, one splitmix64 draw and a modulo.
// The simulator calls it once per queue entry.
func BenchmarkReservoirAdd(b *testing.B) {
	b.Run("below-capacity", func(b *testing.B) {
		r := NewReservoir(1<<16, 1)
		b.ReportAllocs()
		for b.Loop() {
			if len(r.values) == cap(r.values) {
				r.values = r.values[:0] // empty it in place and keep filling
			}
			r.Add(1.5)
		}
	})
	b.Run("above-capacity", func(b *testing.B) {
		r := NewReservoir(4096, 1)
		for i := 0; i < 4096; i++ {
			r.Add(1.5)
		}
		b.ReportAllocs()
		for b.Loop() {
			r.Add(1.5)
		}
	})
}
