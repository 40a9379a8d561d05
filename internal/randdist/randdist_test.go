package randdist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("streams diverged at %d: %v != %v", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(42)
	child := parent.Fork()
	// Fork must be deterministic given the parent state.
	parent2 := New(42)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatal("forked streams are not reproducible")
		}
	}
}

func TestUniformRange(t *testing.T) {
	src := New(1)
	for i := 0; i < 10000; i++ {
		v := src.Uniform(0.3, 1.7)
		if v < 0.3 || v >= 1.7 {
			t.Fatalf("Uniform(0.3, 1.7) = %v out of range", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	src := New(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("Exp(50) sample mean = %v, want ~50", mean)
	}
}

func TestTruncGaussianNonNegative(t *testing.T) {
	src := New(3)
	for i := 0; i < 50000; i++ {
		if v := src.TruncGaussian(10, 20); v < 0 {
			t.Fatalf("TruncGaussian returned negative value %v", v)
		}
	}
}

func TestTruncGaussianMeanNoTruncation(t *testing.T) {
	// With sigma << mean truncation almost never fires, so the sample
	// mean must approach the nominal mean.
	src := New(4)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.TruncGaussian(100, 5)
	}
	mean := sum / n
	if math.Abs(mean-100) > 0.5 {
		t.Fatalf("TruncGaussian(100, 5) mean = %v, want ~100", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	src := New(5)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = src.LogNormal(math.Log(200), 0.5)
	}
	// Median of LogNormal(mu, sigma) is e^mu.
	med := quickSelectMedian(vals)
	if med < 180 || med > 220 {
		t.Fatalf("LogNormal median = %v, want ~200", med)
	}
}

func quickSelectMedian(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	src := New(8)
	check := func(n, k uint16) bool {
		nn := int(n%5000) + 1
		kk := int(k % 200)
		out := src.SampleWithoutReplacement(nn, kk)
		want := kk
		if want > nn {
			want = nn
		}
		if len(out) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= nn || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	src := New(9)
	out := src.SampleWithoutReplacement(10, 10)
	if len(out) != 10 {
		t.Fatalf("want full permutation of 10, got %d", len(out))
	}
	seen := map[int]bool{}
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatal("permutation has duplicates")
	}
}

func TestSampleWithoutReplacementEdge(t *testing.T) {
	src := New(10)
	if out := src.SampleWithoutReplacement(5, 0); len(out) != 0 {
		t.Fatalf("k=0 should give empty, got %v", out)
	}
	if out := src.SampleWithoutReplacement(5, -3); len(out) != 0 {
		t.Fatalf("negative k should give empty, got %v", out)
	}
	if out := src.SampleWithoutReplacement(1, 1); len(out) != 1 || out[0] != 0 {
		t.Fatalf("n=1 k=1 should give [0], got %v", out)
	}
}

func TestSampleUniformity(t *testing.T) {
	// Each element of [0,100) should be sampled roughly equally often.
	src := New(11)
	counts := make([]int, 100)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range src.SampleWithoutReplacement(100, 5) {
			counts[v]++
		}
	}
	want := float64(trials*5) / 100 // 1000
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.2 {
			t.Fatalf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestArrivalProcessMonotonic(t *testing.T) {
	src := New(12)
	ap := NewArrivalProcess(src, 10)
	prev := 0.0
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		next := ap.Next()
		if next < prev {
			t.Fatalf("arrivals not monotonic: %v < %v", next, prev)
		}
		sum += next - prev
		prev = next
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Fatalf("mean inter-arrival = %v, want ~10", mean)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(13).Intn(0)
}

// legacySampleWithoutReplacement is a frozen copy of the allocating
// algorithm as it existed before the scratch-buffer variant was introduced.
// The equivalence tests below pin SampleWithoutReplacementInto to this
// reference draw-for-draw: identical (seed, n, k) call sequences must yield
// identical values AND leave the underlying generator in the identical
// state, or previously pinned simulation output would silently change.
func legacySampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k >= n {
		return rng.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	if k*3 >= n {
		p := rng.Perm(n)
		return p[:k]
	}
	out := make([]int, 0, k)
	seen := make(map[int]struct{}, k)
	for len(out) < k {
		v := rng.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// sampleEquivalenceCases covers every code path: rejection (k << n),
// partial Fisher-Yates (k*3 >= n), full permutation (k == n), clamping
// (k > n), and no-ops (k <= 0) — chained on ONE source so stream state
// carries across calls.
var sampleEquivalenceCases = []struct{ n, k int }{
	{1000, 7}, {50, 40}, {10, 10}, {5, 9}, {5, 0}, {5, -2},
	{3000, 999}, {3000, 1000}, {1, 1}, {2, 1}, {100, 33}, {100, 34},
}

func TestSampleIntoMatchesLegacyDrawForDraw(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		legacy := rand.New(rand.NewSource(seed))
		src := New(seed)
		buf := make([]int, 0, 64)
		for _, c := range sampleEquivalenceCases {
			want := legacySampleWithoutReplacement(legacy, c.n, c.k)
			buf = src.SampleWithoutReplacementInto(buf[:0], c.n, c.k)
			if len(buf) != len(want) {
				t.Fatalf("seed %d (n=%d,k=%d): len %d, want %d", seed, c.n, c.k, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("seed %d (n=%d,k=%d): draw %d = %d, want %d",
						seed, c.n, c.k, i, buf[i], want[i])
				}
			}
		}
		// The generators must also agree AFTER the sequence: equal next
		// draws prove the scratch variant consumed exactly as many values.
		if got, want := src.Int63(), legacy.Int63(); got != want {
			t.Fatalf("seed %d: stream diverged after sampling: %d vs %d", seed, got, want)
		}
	}
}

func TestSampleIntoMatchesAllocatingVariant(t *testing.T) {
	a := New(99)
	b := New(99)
	buf := make([]int, 0, 64)
	for _, c := range sampleEquivalenceCases {
		want := a.SampleWithoutReplacement(c.n, c.k)
		buf = b.SampleWithoutReplacementInto(buf[:0], c.n, c.k)
		if len(buf) != len(want) {
			t.Fatalf("(n=%d,k=%d): len %d, want %d", c.n, c.k, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("(n=%d,k=%d): draw %d = %d, want %d", c.n, c.k, i, buf[i], want[i])
			}
		}
	}
	if got, want := b.Int63(), a.Int63(); got != want {
		t.Fatalf("streams diverged after sampling: %d vs %d", got, want)
	}
}

func TestSampleIntoAppends(t *testing.T) {
	src := New(5)
	dst := []int{-1, -2}
	dst = src.SampleWithoutReplacementInto(dst, 100, 3)
	if len(dst) != 5 || dst[0] != -1 || dst[1] != -2 {
		t.Fatalf("Into must append after the existing prefix, got %v", dst)
	}
}

func TestSampleIntoZeroAllocSteadyState(t *testing.T) {
	src := New(6)
	buf := make([]int, 0, 64)
	// Warm the scratch buffers (rejection set + Fisher-Yates workspace).
	buf = src.SampleWithoutReplacementInto(buf[:0], 1000, 10)
	buf = src.SampleWithoutReplacementInto(buf[:0], 60, 40)
	allocs := testing.AllocsPerRun(200, func() {
		buf = src.SampleWithoutReplacementInto(buf[:0], 1000, 10) // rejection path
		buf = src.SampleWithoutReplacementInto(buf[:0], 60, 40)   // Fisher-Yates path
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampling allocated %v times per op, want 0", allocs)
	}
	// The benchmark's draws (bench_test.go), at every size it runs.
	for _, size := range sampleSizes {
		buf = src.SampleWithoutReplacementInto(buf[:0], size.n, sampleK)
		allocs := testing.AllocsPerRun(200, func() {
			buf = src.SampleWithoutReplacementInto(buf[:0], size.n, sampleK)
		})
		if allocs != 0 {
			t.Errorf("%d of %d: %v allocs per call, want 0", sampleK, size.n, allocs)
		}
	}
}
