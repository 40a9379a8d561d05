// Package stats provides the statistical helpers used to report the paper's
// metrics: percentile job runtimes, CDFs, paired Hawk-vs-baseline ratios,
// and time-sampled cluster utilization.
//
// Everything here feeds golden reports, so results must be replayable;
// hawklint's determinism analyzer enforces it:
//
//hawk:deterministic
package stats

import (
	"fmt"
	"math"

	//hawk:allow report-time percentile/CDF summarization only; the hot path uses reservoir.Add
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. It returns NaN for an empty
// input. The input slice is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// Each float64(...) here rounds a product that an addition would
	// otherwise fuse (see the randdist package comment).
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Mean returns the arithmetic mean, or NaN for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Median returns the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Max returns the maximum, or NaN for an empty input.
func Max(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Summary bundles the per-class percentiles the paper reports.
type Summary struct {
	Count int
	P50   float64
	P90   float64
	P99   float64
	Mean  float64
	Max   float64
}

// Summarize computes a Summary over values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{P50: math.NaN(), P90: math.NaN(), P99: math.NaN(), Mean: math.NaN(), Max: math.NaN()}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Summary{
		Count: len(sorted),
		P50:   percentileSorted(sorted, 50),
		P90:   percentileSorted(sorted, 90),
		P99:   percentileSorted(sorted, 99),
		Mean:  Mean(sorted),
		Max:   sorted[len(sorted)-1],
	}
}

// String formats the summary on one line; an empty class is "n=0" alone,
// since it has no percentiles to print.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%.1f p90=%.1f p99=%.1f mean=%.1f max=%.1f",
		s.Count, s.P50, s.P90, s.P99, s.Mean, s.Max)
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // cumulative fraction <= Value, in (0, 1]
}

// CDF returns the empirical CDF of values as step points, one per distinct
// sample. Used to regenerate the CDF figures (Figures 1 and 4).
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	points := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		if len(points) > 0 && points[len(points)-1].Value == v {
			points[len(points)-1].Fraction = float64(i+1) / n
			continue
		}
		points = append(points, CDFPoint{Value: v, Fraction: float64(i+1) / n})
	}
	return points
}

// CDFAt evaluates an empirical CDF at x: the fraction of samples <= x.
func CDFAt(points []CDFPoint, x float64) float64 {
	idx := sort.Search(len(points), func(i int) bool { return points[i].Value > x })
	if idx == 0 {
		return 0
	}
	return points[idx-1].Fraction
}

// FractionAtOrBelow returns the fraction of values <= threshold.
func FractionAtOrBelow(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	count := 0
	for _, v := range values {
		if v <= threshold {
			count++
		}
	}
	return float64(count) / float64(len(values))
}

// PairedComparison compares per-job runtimes between a candidate scheduler
// and a baseline over the same jobs, producing the "additional metrics" of
// Figure 5c: the fraction of jobs the candidate improves (or ties) and the
// ratio of mean runtimes.
type PairedComparison struct {
	// FractionImprovedOrEqual is the fraction of jobs with candidate
	// runtime <= baseline runtime.
	FractionImprovedOrEqual float64
	// FractionImprovedBy50 is the fraction of jobs improved by more than 50%.
	FractionImprovedBy50 float64
	// MeanRuntimeRatio is mean(candidate) / mean(baseline).
	MeanRuntimeRatio float64
}

// ComparePaired builds a PairedComparison from two maps keyed by job id.
// Jobs present in only one map are ignored.
func ComparePaired(candidate, baseline map[int]float64) PairedComparison {
	// Sum in sorted-id order: candSum and baseSum are float accumulations,
	// so map-iteration order would leak into MeanRuntimeRatio's low bits
	// and make reports differ run to run.
	ids := make([]int, 0, len(candidate))
	for id := range candidate { //hawk:allow order-insensitive collect; ids are sorted below before any float math
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var better, muchBetter, total int
	var candSum, baseSum float64
	for _, id := range ids {
		c := candidate[id]
		b, ok := baseline[id]
		if !ok {
			continue
		}
		total++
		candSum += c
		baseSum += b
		if c <= b {
			better++
		}
		if c < 0.5*b {
			muchBetter++
		}
	}
	if total == 0 || baseSum == 0 {
		return PairedComparison{
			FractionImprovedOrEqual: math.NaN(),
			FractionImprovedBy50:    math.NaN(),
			MeanRuntimeRatio:        math.NaN(),
		}
	}
	return PairedComparison{
		FractionImprovedOrEqual: float64(better) / float64(total),
		FractionImprovedBy50:    float64(muchBetter) / float64(total),
		MeanRuntimeRatio:        candSum / baseSum,
	}
}

// UtilizationSeries accumulates periodic cluster-utilization snapshots
// (fraction of busy nodes), mirroring the paper's 100-second sampling.
type UtilizationSeries struct {
	times   []float64
	samples []float64
}

// AddAt appends one timestamped utilization sample in [0, 1].
func (u *UtilizationSeries) AddAt(t, fractionBusy float64) {
	u.times = append(u.times, t)
	u.samples = append(u.samples, fractionBusy)
}

// MedianUpTo returns the median utilization over samples taken at or before
// deadline. Our synthetic traces are much shorter than the paper's
// month-long Google trace, so the post-arrival drain phase would otherwise
// dominate the median; restricting to the arrival window (deadline = last
// submission) recovers the statistic the paper plots.
func (u *UtilizationSeries) MedianUpTo(deadline float64) float64 {
	var window []float64
	for i, t := range u.times {
		if t <= deadline {
			window = append(window, u.samples[i])
		}
	}
	return Median(window)
}

// MedianBetween returns the median utilization over samples taken in the
// closed window [from, to] — the statistic the robustness figures report
// for an outage window. NaN when the window holds no samples.
func (u *UtilizationSeries) MedianBetween(from, to float64) float64 {
	var window []float64
	for i, t := range u.times {
		if t >= from && t <= to {
			window = append(window, u.samples[i])
		}
	}
	return Median(window)
}

// Len returns the number of samples collected.
func (u *UtilizationSeries) Len() int { return len(u.samples) }

// Median returns the median utilization, the statistic plotted as "median
// cluster utilization" across the paper's figures.
func (u *UtilizationSeries) Median() float64 { return Median(u.samples) }

// Max returns the maximum utilization sample.
func (u *UtilizationSeries) Max() float64 { return Max(u.samples) }

// Samples returns a copy of the collected samples.
func (u *UtilizationSeries) Samples() []float64 {
	return append([]float64(nil), u.samples...)
}

// Ratio returns a/b, or NaN when b == 0. Keeps figure code free of
// divide-by-zero special cases when a sweep point produced no jobs of a
// class.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
