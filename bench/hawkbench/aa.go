package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// aaSeeds is how many seeds each workload runs on in each of the two sets,
// the count the acceptance check uses.
const aaSeeds = 10

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the A/A
// check its bounds, the smoke test the names it must print.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// invoke runs this binary once more as the driver would and decodes the
// JSON object on the last line of its output. Each invocation keeps its
// results.json in a directory of its own under o.out/aa.
func invoke(self string, o options, set int, workload string, seed int, seconds int, trace int) (*resultJSON, error) {
	dir := filepath.Join(o.out, "aa", fmt.Sprintf("set%d-%s-seed%d-trace%d", set+1, workload, seed, trace))
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", dir)
	if o.jobs > 0 {
		cmd.Args = append(cmd.Args, "--jobs", strconv.Itoa(o.jobs))
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", cmd.Args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultJSON
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%v: last line is not a result: %w", cmd.Args, err)
	}
	return &res, nil
}

// runAA runs the whole benchmark twice on the same build — every workload
// on aaSeeds seeds per set, plus one traced run — and prints, per workload
// and end-to-end metric, both medians, both spreads (interquartile range
// over median), how much worse the second median is, the bound, and
// whether the pair passes. The exact counts of the two traced runs must
// agree: the simulator is deterministic, so any difference is a bug.
func runAA(o options) error {
	spec, err := readBenchmarkSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type cell struct{ values [2][]float64 }
	cells := map[string]*cell{} // workload/metric
	ok := true
	for _, w := range spec.Workloads {
		var counts [2]map[string]metricJSON
		for set := 0; set < 2; set++ {
			for seed := 1; seed <= aaSeeds; seed++ {
				res, err := invoke(self, o, set, w.Name, seed, spec.RunSeconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					ok = false
					fmt.Printf("FAIL %s set %d seed %d: %d of %d runs failed\n", w.Name, set+1, seed, res.Failed, res.Attempted)
				}
				for _, m := range spec.EndToEnd {
					key := w.Name + "/" + m.Name
					if cells[key] == nil {
						cells[key] = &cell{}
					}
					cells[key].values[set] = append(cells[key].values[set], res.Metrics[m.Name].Value)
				}
			}
			res, err := invoke(self, o, set, w.Name, 1, spec.RunSeconds, 1)
			if err != nil {
				return err
			}
			if !res.Correct {
				ok = false
				fmt.Printf("FAIL %s set %d traced: %d of %d runs failed\n", w.Name, set+1, res.Failed, res.Attempted)
			}
			counts[set] = res.Metrics
		}
		for name, a := range counts[0] {
			if b := counts[1][name]; a.Unit == "count" && a.Value != b.Value {
				ok = false
				fmt.Printf("FAIL %s %s: %v in set 1, %v in set 2\n", w.Name, name, a.Value, b.Value)
			}
		}
	}
	fmt.Println("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | worse by | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			c := cells[w.Name+"/"+m.Name]
			var med, spread [2]float64
			for set := range med {
				med[set] = median(c.values[set])
				q1, q3 := quartiles(c.values[set])
				spread[set] = (q3 - q1) / med[set]
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "pass"
			switch widest := max(spread[0], spread[1]); {
			case worse > m.Bound, m.Name != "setup_s" && widest > m.Bound:
				verdict, ok = "FAIL", false
			case m.Name != "setup_s" && widest > m.Bound/3:
				verdict = "pass, spread above bound/3"
			}
			fmt.Printf("| %s | %s | %.6g %s | %.2f%% | %.6g %s | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, med[0], m.Unit, 100*spread[0], med[1], m.Unit, 100*spread[1], 100*worse, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("A/A check failed")
	}
	return nil
}
