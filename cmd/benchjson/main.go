// Command benchjson converts `go test -bench` output into a stable JSON
// document and compares two such documents for performance regressions.
// CI uses it for the gate over the in-package layer rungs: every push to
// main uploads a BENCH_<sha>.json artifact, and every pull request re-runs
// the rungs on the base branch and fails if ns/op regresses by more than a
// threshold (see .github/workflows/ci.yml).
//
// Convert (reads stdin or a file, writes stdout or -o):
//
//	go test -bench='CentralQueue|StealScan' -benchmem -count=5 -run='^$' ./internal/core ./internal/sim |
//	    benchjson -sha "$GITHUB_SHA" -o BENCH_$GITHUB_SHA.json
//
// Compare (exit status 1 on regression):
//
//	benchjson -compare base.json head.json -threshold 15 -alloc-threshold 25 -bytes-threshold 25
//
// Compare gates three metrics: min ns/op against -threshold, min allocs/op
// against -alloc-threshold, and min B/op against -bytes-threshold. An
// allocation-count regression is a structural change (a new allocation
// site on a hot path), is essentially noise-free, and historically
// precedes the ns/op regression it causes, so it gets its own,
// stricter-by-nature gate; bytes catch the complementary failure — the
// same number of allocations growing larger (an over-sized hint, a struct
// that gained a field, a buffer that stopped being reused) — which an
// allocation count cannot see.
//
// With -count=N each benchmark aggregates to {min, mean, max} per unit;
// comparisons use min, the estimate least sensitive to scheduler noise on
// shared CI runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// File is the JSON document: one benchmark run environment plus aggregated
// results keyed by benchmark name.
type File struct {
	SHA        string               `json:"sha,omitempty"`
	Goos       string               `json:"goos,omitempty"`
	Goarch     string               `json:"goarch,omitempty"`
	CPU        string               `json:"cpu,omitempty"`
	Pkg        string               `json:"pkg,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Benchmark aggregates all -count repetitions of one benchmark.
type Benchmark struct {
	// Runs is the number of result lines aggregated (the -count value).
	Runs int `json:"runs"`
	// Metrics maps a unit ("ns/op", "B/op", "allocs/op", or any custom
	// b.ReportMetric unit) to its aggregate over the runs.
	Metrics map[string]Stat `json:"metrics"`
}

// Stat summarizes one metric across repetitions.
type Stat struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func (s Stat) add(v float64, n int) Stat {
	if n == 0 || v < s.Min {
		s.Min = v
	}
	if n == 0 || v > s.Max {
		s.Max = v
	}
	// Mean accumulates a running average so the struct stays flat.
	s.Mean = (s.Mean*float64(n) + v) / float64(n+1)
	return s
}

// Parse reads `go test -bench` output and aggregates it into a File.
func Parse(r io.Reader) (*File, error) {
	f := &File{Benchmarks: map[string]Benchmark{}}
	runs := map[string]map[string]int{} // name -> unit -> samples seen
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			f.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			f.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// A result line is: name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := normalizeName(fields[0])
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		b, ok := f.Benchmarks[name]
		if !ok {
			b = Benchmark{Metrics: map[string]Stat{}}
			runs[name] = map[string]int{}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			unit := fields[i+1]
			b.Metrics[unit] = b.Metrics[unit].add(v, runs[name][unit])
			runs[name][unit]++
		}
		b.Runs = runs[name]["ns/op"]
		f.Benchmarks[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark result lines found")
	}
	return f, nil
}

// normalizeName strips the Benchmark prefix and the -GOMAXPROCS suffix so
// names compare across machines with different core counts.
func normalizeName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// Delta is one benchmark's base-vs-head comparison on the min of one
// gated metric (ns/op, allocs/op, or B/op).
type Delta struct {
	Name    string
	Unit    string  // "ns/op", "allocs/op", or "B/op"
	Base    float64 // min in base
	Head    float64 // min in head
	Percent float64 // (head-base)/base * 100; positive = worse
}

// gatedUnits are the metrics Compare produces deltas for. ns/op is wall
// time; allocs/op and B/op are gated separately because allocation counts
// and sizes are deterministic — a regression there is a real new or grown
// allocation site, not runner noise.
var gatedUnits = []string{"ns/op", "allocs/op", "B/op"}

// Compare matches benchmarks by name and reports per-metric deltas, sorted
// worst-first, plus the names of base benchmarks missing from head.
// Benchmarks new in head are skipped (no baseline to regress against), as
// are metrics absent on either side (e.g. allocs/op when a stored base
// predates -benchmem), but base benchmarks absent from head are coverage
// the gate would silently lose — a deleted, renamed, or crashed benchmark —
// so they are returned for the caller to fail on.
func Compare(base, head *File) (deltas []Delta, missing []string) {
	for name, hb := range head.Benchmarks {
		bb, ok := base.Benchmarks[name]
		if !ok {
			continue
		}
		for _, unit := range gatedUnits {
			hs, hok := hb.Metrics[unit]
			bs, bok := bb.Metrics[unit]
			if !hok || !bok {
				continue
			}
			if bs.Min == 0 {
				if hs.Min == 0 {
					continue // both zero: nothing to gate
				}
				// A zero baseline (a benchmark driven to 0 allocs/op) has
				// no finite percentage; any nonzero head is an infinite
				// regression and must trip the gate, not be skipped.
				deltas = append(deltas, Delta{
					Name: name, Unit: unit, Base: 0, Head: hs.Min, Percent: math.Inf(1),
				})
				continue
			}
			deltas = append(deltas, Delta{
				Name:    name,
				Unit:    unit,
				Base:    bs.Min,
				Head:    hs.Min,
				Percent: 100 * (hs.Min - bs.Min) / bs.Min,
			})
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Percent != deltas[j].Percent {
			return deltas[i].Percent > deltas[j].Percent
		}
		if deltas[i].Name != deltas[j].Name {
			return deltas[i].Name < deltas[j].Name
		}
		return deltas[i].Unit < deltas[j].Unit
	})
	for name := range base.Benchmarks {
		if _, ok := head.Benchmarks[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return deltas, missing
}

func main() {
	var (
		sha            = flag.String("sha", "", "commit sha to record in the JSON")
		out            = flag.String("o", "", "output path (default stdout)")
		compare        = flag.Bool("compare", false, "compare two benchjson files: base.json head.json")
		threshold      = flag.Float64("threshold", 15, "with -compare: fail on ns/op regressions above this percent")
		allocThreshold = flag.Float64("alloc-threshold", 25, "with -compare: fail on allocs/op regressions above this percent")
		bytesThreshold = flag.Float64("bytes-threshold", 25, "with -compare: fail on B/op regressions above this percent")
	)
	flag.Parse()
	if err := run(*sha, *out, *compare, *threshold, *allocThreshold, *bytesThreshold, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(sha, out string, compare bool, threshold, allocThreshold, bytesThreshold float64, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs exactly two files: base.json head.json")
		}
		base, err := readFile(args[0])
		if err != nil {
			return err
		}
		head, err := readFile(args[1])
		if err != nil {
			return err
		}
		deltas, missing := Compare(base, head)
		if len(deltas) == 0 {
			return fmt.Errorf("no common benchmarks between %s and %s", args[0], args[1])
		}
		var failedUnits []string
		for _, d := range deltas {
			limit := threshold
			switch d.Unit {
			case "allocs/op":
				limit = allocThreshold
			case "B/op":
				limit = bytesThreshold
			}
			verdict := "ok"
			if d.Percent > limit {
				verdict = "REGRESSION"
				failedUnits = append(failedUnits, fmt.Sprintf("%s %s %+.2f%% (limit %g%%)", d.Name, d.Unit, d.Percent, limit))
			}
			fmt.Printf("%-40s base %14.0f %-9s head %14.0f %-9s %+7.2f%%  %s\n",
				d.Name, d.Base, d.Unit, d.Head, d.Unit, d.Percent, verdict)
		}
		if len(missing) > 0 {
			return fmt.Errorf("benchmarks in %s missing from %s (deleted, renamed, or crashed?): %s",
				args[0], args[1], strings.Join(missing, ", "))
		}
		if len(failedUnits) > 0 {
			return fmt.Errorf("performance regressed beyond the gate: %s", strings.Join(failedUnits, "; "))
		}
		return nil
	}

	in := io.Reader(os.Stdin)
	if len(args) == 1 {
		fh, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer fh.Close()
		in = fh
	} else if len(args) > 1 {
		return fmt.Errorf("at most one input file, got %d", len(args))
	}
	f, err := Parse(in)
	if err != nil {
		return err
	}
	f.SHA = sha
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
