package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 50, 90, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile(single, %v) = %v, want 7", p, got)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Fatalf("Percentile(empty) = %v, want NaN", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{5, 1, 3}
	Percentile(vals, 50)
	if vals[0] != 5 || vals[1] != 1 || vals[2] != 3 {
		t.Fatalf("input mutated: %v", vals)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(raw []float64, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(vals, a), Percentile(vals, b)
		return va <= vb && va >= slices.Min(vals) && vb <= Max(vals)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedianMinMaxSum(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if m := Mean(vals); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(vals); m != 2.5 {
		t.Errorf("Median = %v", m)
	}
	if m := Max(vals); m != 4 {
		t.Errorf("Max = %v", m)
	}
}

func TestEmptyAggregatesNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty aggregates should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s := Summarize(vals)
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if math.Abs(s.P50-50.5) > 1e-9 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.Max != 100 {
		t.Errorf("Max = %v", s.Max)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
	if got := Summarize(nil).String(); got != "n=0" {
		t.Errorf("empty Summary prints %q, want \"n=0\"", got)
	}
}

func TestCDF(t *testing.T) {
	points := CDF([]float64{1, 2, 2, 3})
	if len(points) != 3 {
		t.Fatalf("CDF has %d distinct points, want 3", len(points))
	}
	if points[0].Value != 1 || math.Abs(points[0].Fraction-0.25) > 1e-9 {
		t.Errorf("point 0 = %+v", points[0])
	}
	if points[1].Value != 2 || math.Abs(points[1].Fraction-0.75) > 1e-9 {
		t.Errorf("point 1 = %+v", points[1])
	}
	if points[2].Value != 3 || points[2].Fraction != 1 {
		t.Errorf("point 2 = %+v", points[2])
	}
}

func TestCDFAt(t *testing.T) {
	points := CDF([]float64{10, 20, 30, 40})
	cases := []struct {
		x    float64
		want float64
	}{
		{5, 0}, {10, 0.25}, {15, 0.25}, {40, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := CDFAt(points, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Property: a CDF is monotone in both value and fraction, ends at 1, and
// CDFAt agrees with direct counting.
func TestCDFProperty(t *testing.T) {
	check := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			vals[i] = v
		}
		points := CDF(vals)
		if points[len(points)-1].Fraction != 1 {
			return false
		}
		for i := 1; i < len(points); i++ {
			if points[i].Value <= points[i-1].Value || points[i].Fraction < points[i-1].Fraction {
				return false
			}
		}
		// CDFAt at each sample value equals the counted fraction.
		sort.Float64s(vals)
		for _, p := range points {
			if math.Abs(CDFAt(points, p.Value)-FractionAtOrBelow(vals, p.Value)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if f := FractionAtOrBelow(vals, 2.5); f != 0.5 {
		t.Fatalf("FractionAtOrBelow = %v", f)
	}
	if f := FractionAtOrBelow(nil, 1); !math.IsNaN(f) {
		t.Fatalf("empty input should give NaN, got %v", f)
	}
}

func TestComparePaired(t *testing.T) {
	cand := map[int]float64{1: 10, 2: 50, 3: 100, 4: 9}
	base := map[int]float64{1: 20, 2: 50, 3: 80, 4: 100, 5: 7}
	cmp := ComparePaired(cand, base)
	// Jobs 1 (10<=20), 2 (50<=50), 4 (9<=100) improve-or-equal: 3/4.
	if math.Abs(cmp.FractionImprovedOrEqual-0.75) > 1e-9 {
		t.Errorf("FractionImprovedOrEqual = %v", cmp.FractionImprovedOrEqual)
	}
	// Jobs 1 (10 < 10) no; 10 < 0.5*20 = 10 is false; job 4: 9 < 50 yes.
	if math.Abs(cmp.FractionImprovedBy50-0.25) > 1e-9 {
		t.Errorf("FractionImprovedBy50 = %v", cmp.FractionImprovedBy50)
	}
	wantRatio := (10.0 + 50 + 100 + 9) / (20.0 + 50 + 80 + 100)
	if math.Abs(cmp.MeanRuntimeRatio-wantRatio) > 1e-9 {
		t.Errorf("MeanRuntimeRatio = %v, want %v", cmp.MeanRuntimeRatio, wantRatio)
	}
}

func TestComparePairedEmpty(t *testing.T) {
	cmp := ComparePaired(map[int]float64{1: 1}, map[int]float64{2: 1})
	if !math.IsNaN(cmp.MeanRuntimeRatio) {
		t.Fatal("disjoint ids should produce NaN ratios")
	}
}

func TestUtilizationSeries(t *testing.T) {
	var u UtilizationSeries
	for i, v := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		u.AddAt(float64(i*100), v)
	}
	if u.Len() != 5 {
		t.Fatalf("Len = %d", u.Len())
	}
	if m := u.Median(); m != 0.5 {
		t.Fatalf("Median = %v", m)
	}
	if m := u.Max(); m != 0.9 {
		t.Fatalf("Max = %v", m)
	}
	// Restricting to t <= 100 keeps only 0.1 and 0.9.
	if m := u.MedianUpTo(100); m != 0.5 {
		t.Fatalf("MedianUpTo(100) = %v", m)
	}
	if m := u.MedianUpTo(0); m != 0.1 {
		t.Fatalf("MedianUpTo(0) = %v", m)
	}
	s := u.Samples()
	s[0] = 99
	if u.Samples()[0] == 99 {
		t.Fatal("Samples must return a copy")
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(4, 2); r != 2 {
		t.Fatalf("Ratio = %v", r)
	}
	if r := Ratio(1, 0); !math.IsNaN(r) {
		t.Fatalf("Ratio by zero = %v, want NaN", r)
	}
}
