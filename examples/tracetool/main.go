// Tracetool demonstrates the trace API: generate each synthetic workload,
// round-trip it through a hawk-trace file, and print the Table 1/2
// characterization — the numbers that motivate Hawk's design.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/hawk"
)

func main() {
	dir, err := os.MkdirTemp("", "tracetool")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("%-10s %-12s %-14s %-12s %-10s\n",
		"workload", "% long jobs", "% task-secs", "long tasks%", "file bytes")
	for _, spec := range hawk.AllSpecs() {
		trace := hawk.Generate(spec, hawk.GenConfig{
			NumJobs:          2000,
			MeanInterArrival: 2,
			Seed:             11,
		})

		// Round-trip through a trace file: one way out, one way back in.
		path := filepath.Join(dir, spec.Name+".trace")
		if err := hawk.SaveTraceSource(path, hawk.NewTraceSource(trace)); err != nil {
			log.Fatalf("writing %s: %v", spec.Name, err)
		}
		reloaded, err := hawk.LoadTraceFile(path)
		if err != nil {
			log.Fatalf("reading %s back: %v", spec.Name, err)
		}
		if reloaded.Len() != trace.Len() {
			log.Fatalf("%s: round trip lost jobs: %d != %d", spec.Name, reloaded.Len(), trace.Len())
		}
		fi, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}

		st := hawk.ComputeStatsByConstruction(reloaded)
		fmt.Printf("%-10s %11.2f%% %13.2f%% %11.2f%% %10d\n",
			spec.Name, st.PctLongJobs, st.PctLongTaskSeconds, st.PctLongTasks, fi.Size())
	}
	fmt.Println("\nEvery workload shows the same pattern: a few long jobs own most of the")
	fmt.Println("resources — the heterogeneity Hawk's hybrid design exploits.")
}
